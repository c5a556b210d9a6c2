"""Front-end configuration knobs.

Kept separate from :class:`~repro.cpu.ooo.CoreConfig` so the timing core
stays frontend-agnostic: the core only carries the ``frontend`` mode
string, everything else lives here and flows into
:class:`~repro.frontend.DecoupledFrontEnd` at system assembly.
"""

from repro._validate import require_ints

#: legal values of ``CoreConfig.frontend`` / ``SystemConfig.frontend``
FRONTEND_MODES = ("off", "ftq")

#: legal values of ``SystemConfig.iprefetcher``; the prefetchers live in
#: :mod:`repro.frontend.iprefetch`, which loads only with the front end
IPREFETCHER_NAMES = ("none", "nextline-i", "fdip", "bfetch-i", "combined")


class FrontendConfig:
    """Decoupled front-end parameters.

    :param ftq_entries: fetch target queue capacity in fetch blocks.
    :param fill_width: fetch blocks the BPU can enqueue per cycle.
    :param fdip_degree: FTQ entries the FDIP engine may turn into L1-I
        prefetches per cycle.
    :param fdip_distance: FTQ entries (nearest first) FDIP skips -- the
        in-flight fetch distance that demand fetch covers anyway.
    :param nextline_degree: sequential blocks the ``nextline-i``
        baseline pushes per demand L1-I miss.
    :param drain_rate: queued I-side prefetches issued into the
        hierarchy per cycle (mirrors ``CoreConfig.prefetch_drain_rate``).
    :param queue_capacity: bounded I-side prefetch request queue size.
    """

    def __init__(
        self,
        ftq_entries=32,
        fill_width=2,
        fdip_degree=4,
        fdip_distance=1,
        nextline_degree=2,
        drain_rate=2,
        queue_capacity=32,
    ):
        require_ints("FrontendConfig", (
            ("ftq_entries", ftq_entries),
            ("fill_width", fill_width),
            ("fdip_degree", fdip_degree),
            ("nextline_degree", nextline_degree),
            ("drain_rate", drain_rate),
            ("queue_capacity", queue_capacity),
        ))
        require_ints("FrontendConfig", (("fdip_distance", fdip_distance),),
                     minimum=0)
        self.ftq_entries = ftq_entries
        self.fill_width = fill_width
        self.fdip_degree = fdip_degree
        self.fdip_distance = fdip_distance
        self.nextline_degree = nextline_degree
        self.drain_rate = drain_rate
        self.queue_capacity = queue_capacity

    def key(self):
        """Stable identity tuple for result caching."""
        return (
            self.ftq_entries,
            self.fill_width,
            self.fdip_degree,
            self.fdip_distance,
            self.nextline_degree,
            self.drain_rate,
            self.queue_capacity,
        )
