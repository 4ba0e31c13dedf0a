"""``python -m dckf`` and the ``dckf`` console script.

OpenBLAS reads its thread count once, when numpy loads it, and its idle
workers spin between calls.  The command line therefore defaults to one
BLAS thread and lets the Monte Carlo run trial chunks in parallel instead
(see ``dckf.sim``).  The default is set before ``dckf.cli`` imports numpy,
and a value the user exported wins.  Library callers keep their own setting.
"""

import os
import sys


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
