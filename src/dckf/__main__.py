"""``python -m dckf`` and the ``dckf`` console script.

Both import the ``dckf`` package before ``dckf.cli`` loads numpy, so the
package's one-BLAS-thread default (see ``dckf``) holds for every command,
and a value the user exported wins.
"""

import gc
import sys

from .cli import main

# Keep the import heap out of every collection, the one at exit included.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
