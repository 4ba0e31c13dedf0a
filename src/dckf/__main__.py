"""``python -m dckf`` and the ``dckf`` console script.

Both import the ``dckf`` package before ``dckf.cli`` loads numpy, so the
package's one-BLAS-thread default (see ``dckf``) holds for every command,
and a value the user exported wins.
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
