"""``python -m dckf`` and the ``dckf`` console script.

Both import the ``dckf`` package before ``dckf.cli`` loads numpy, so the
package's one-BLAS-thread default (see ``dckf``) holds for every command,
and a value the user exported wins.

The cyclic collector is paused while ``dckf.cli`` imports numpy and scipy,
and the heap they build is then frozen, so no collection ever scans it:
neither while it is built nor at exit.  Collection is back on before the
command runs.
"""

import gc
import sys

gc.disable()
from .cli import main

gc.freeze()
gc.enable()

if __name__ == "__main__":
    sys.exit(main())
