"""Package exports resolved on first access (PEP 562).

Every package ``__init__`` under :mod:`repro` imports nothing.  It names
the submodule each exported name lives in, and :func:`lazy_exports`
builds the module-level ``__getattr__``/``__dir__`` pair that imports
that submodule the first time the name is read.  So ``import repro``
loads no simulator code, and a process compiles only the modules it
uses.  Each resolved name is stored on the package, so later reads are
plain attribute lookups.
"""

import sys


def lazy_exports(package, exports):
    """PEP 562 hooks exporting names from *package*'s submodules.

    :param package: the package's ``__name__``.
    :param exports: ``{submodule: names}``; each submodule is given
        relative to *package* (``"config"`` is ``package + ".config"``).
    :returns: ``(__getattr__, __dir__)`` for the package namespace.
    """
    origin = {name: package + "." + module
              for module, names in exports.items() for name in names}

    def __getattr__(name):
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                "module %r has no attribute %r" % (package, name))
        __import__(module)
        value = getattr(sys.modules[module], name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
