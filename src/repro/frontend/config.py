"""Front-end selection names.

Kept separate from :mod:`repro.frontend.frontend` so that
:class:`~repro.sim.config.SystemConfig` can validate its ``frontend``
and ``iprefetcher`` arguments without loading the front end.  The
front end's sizes are constants of the modules that simulate them
(:mod:`repro.frontend.frontend`, :mod:`repro.frontend.iprefetch`).
"""

#: legal values of ``CoreConfig.frontend`` / ``SystemConfig.frontend``
FRONTEND_MODES = ("off", "ftq")

#: legal values of ``SystemConfig.iprefetcher``; the prefetchers live in
#: :mod:`repro.frontend.iprefetch`, which loads only with the front end
IPREFETCHER_NAMES = ("none", "nextline-i", "fdip", "bfetch-i", "combined")
