"""Distributed continuous-time Kalman filtering under model mismatch.

Build a consensus-coupled sensor-network filter from a true system, a
(possibly wrong) nominal model, and an undirected topology; then compute,
bound, and Monte-Carlo-validate its performance under the modeling errors.

The package exports the ``__all__`` of each of its seven library submodules,
and ``dckf.__all__`` is their union.  It is imported lazily (PEP 562):
``import dckf`` loads no submodule and no numpy.  A public name is looked up
in the submodules, on every access and never stored here, so a name always
shows what its submodule holds right now.  The lookup tries the set-up
modules (``scenario`` and the four it imports) before ``analysis`` and
``sim``, so loading a scenario and building its filter loads neither of them.

``import dckf`` defaults the process to one BLAS thread, as the command line
does.  OpenBLAS takes its thread count from the first positive value among
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS``; when
none holds one, this import sets ``OPENBLAS_NUM_THREADS=1``, and a value you
export yourself wins.  OpenBLAS reads the variables once, when it loads, and
its idle workers spin between calls.  numpy and scipy each load their own
OpenBLAS, so two multi-threaded pools spin against each other whenever a
caller switches between numpy products and scipy factorizations.  Every BLAS
that loads after this import starts with one thread.  When numpy or scipy
loaded first, the import also sets each OpenBLAS already mapped into the
process (found through ``/proc/self/maps``) to one thread; without ``/proc``
or a known thread setter that step does nothing.  The Monte Carlo spends the
free cores on trial chunks instead (see ``dckf.sim``).

``import dckf`` also defers eight numpy modules that no dckf module uses:
``numpy.f2py``, ``numpy.testing``, ``numpy.polynomial``, ``numpy.ctypeslib``,
``numpy.char``, ``numpy.rec``, ``numpy.strings`` and ``numpy.ma``.  scipy
1.17's array-API shim clones numpy's namespace when a dckf module loads
``scipy.linalg``, and that imports every numpy submodule; each of these eight
then loads as an ``importlib.util.LazyLoader`` module, which runs on its
first attribute read.  The Riccati solve takes the null space of a neutral
mode from LAPACK ``gesdd`` itself, since scipy's input checks read
``numpy.ma``.  On a 2-core box this saves about 0.08 s and 10 MB per process.
A module loaded before ``import dckf`` is left as it is.  Before Python 3.12
``LazyLoader`` does not lock a module's first run against other threads, so
dckf code must not use a deferred module, directly or through a scipy input
check.
"""

import importlib
import os
import sys

# BLAS thread variables in the order OpenBLAS reads them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Thread-count setters: numpy's and scipy's OpenBLAS builds, then system builds.
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _blas_threads():
    """The first positive integer among the BLAS thread variables; None when none holds one."""
    for var in _BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return None


def _cap_loaded_openblas():
    """Set every OpenBLAS already mapped into the process to one thread."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:
        return
    import ctypes

    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setter = next((getattr(lib, s) for s in _OPENBLAS_SETTERS if hasattr(lib, s)), None)
        if setter is not None:
            setter(1)


if _blas_threads() is None:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if "numpy" in sys.modules or "scipy" in sys.modules:
        _cap_loaded_openblas()

# numpy submodules that scipy's array-API shim requests and no dckf module uses.
_DEFERRED = frozenset(
    f"numpy.{name}"
    for name in ("f2py", "testing", "polynomial", "ctypeslib", "char", "rec", "strings", "ma")
)


class _DeferNumpyModules:
    """Meta-path finder: each ``_DEFERRED`` module runs on its first attribute read."""

    @staticmethod
    def find_spec(name, path=None, target=None):
        if name not in _DEFERRED:
            return None
        import importlib.machinery
        import importlib.util

        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is not None:
            spec.loader = importlib.util.LazyLoader(spec.loader)
        return spec


sys.meta_path.insert(0, _DeferNumpyModules)

__version__ = "0.1.0"

# ``scenario`` imports ``filtering``, ``graph``, ``model`` and ``solvers``, and
# none of them imports ``analysis`` or ``sim``; so looking up a name of the
# first five imports nothing that loading a scenario does not.
_EXPORTING = ("scenario", "filtering", "graph", "model", "solvers", "analysis", "sim")
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
