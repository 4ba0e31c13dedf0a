"""One fresh-interpreter set-up: import dckf, load a workload's scenarios, build its first filter.

    python3 perfbench/setup_probe.py <workload> <seed>

``run.py`` times this process from spawn to exit; that is the ``setup_s``
every command-line run of the workload pays before its first op.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import dckf
    import workloads

    workloads.setup(dckf, sys.argv[1], int(sys.argv[2]))
