"""Distributed continuous-time Kalman filtering under model mismatch.

Build a consensus-coupled sensor-network filter from a true system, a
(possibly wrong) nominal model, and an undirected topology; then compute,
bound, and Monte-Carlo-validate its performance under the modeling errors.

The package exports the ``__all__`` of each of its seven library submodules,
and ``dckf.__all__`` is their union.  It is imported lazily (PEP 562):
``import dckf`` loads no submodule and no numpy, so ``python -m dckf`` can
choose a BLAS thread default before numpy starts.  A public name is looked up
in the submodules, ``scenario`` first and ``sim`` last, on every access and
never stored here, so a name always shows what its submodule holds right now.
"""

import importlib

__version__ = "0.1.0"

# ``scenario`` imports every other library module but ``sim``, so no lookup
# before ``sim`` is reached imports anything that loading a scenario does not.
_EXPORTING = ("scenario", "analysis", "filtering", "graph", "model", "solvers", "sim")
_SUBMODULES = (*_EXPORTING, "cli", "matkit")


def _submodule(name):
    return importlib.import_module(f".{name}", __name__)


def __getattr__(name):
    if name in _SUBMODULES:
        return _submodule(name)
    if name == "__all__":
        return sorted(n for module in _EXPORTING for n in _submodule(module).__all__)
    for module in map(_submodule, _EXPORTING):
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__"), *_SUBMODULES})
