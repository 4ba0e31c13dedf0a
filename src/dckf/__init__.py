"""Distributed continuous-time Kalman filtering under model mismatch.

Build a consensus-coupled sensor-network filter from a true system, a
(possibly wrong) nominal model, and an undirected topology; then compute,
bound, and Monte-Carlo-validate its performance under the modeling errors.

The package exports the ``__all__`` of each of its seven library submodules,
and ``dckf.__all__`` is their union.  It is imported lazily (PEP 562):
``import dckf`` loads no submodule and no numpy.  A public name is looked up
in the submodules, ``scenario`` first and ``sim`` last, on every access and
never stored here, so a name always shows what its submodule holds right now.

``import dckf`` defaults the process to one BLAS thread
(``OPENBLAS_NUM_THREADS=1``), as the command line does; a value already set
wins.  OpenBLAS reads its thread count once, when it loads, and its idle
workers spin between calls.  numpy and scipy each load their own OpenBLAS, so
two multi-threaded pools spin against each other whenever a caller switches
between numpy products and scipy factorizations.  Every BLAS that loads after
this import starts with one thread; one loaded before it (numpy, if the
caller imported it first) keeps the count it started with.  The Monte Carlo
spends the free cores on trial chunks instead (see ``dckf.sim``).
"""

import importlib
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
