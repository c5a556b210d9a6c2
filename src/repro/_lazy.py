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

    if any(module == package + "." + name for name, module in origin.items()):
        class _Package(type(sys)):
            """Loading a submodule binds it on its package; an export
            named like the submodule that defines it (``repro.sim.catalog``)
            stays the export instead."""

            def __setattr__(self, name, value):
                if origin.get(name) == getattr(value, "__name__", None):
                    value = getattr(value, name)
                super().__setattr__(name, value)

        sys.modules[package].__class__ = _Package

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
