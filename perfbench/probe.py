"""One set-up in a fresh interpreter; ``run.py`` takes this whole process's
CPU time, against that of a reference interpreter run just before it.

    python3 perfbench/probe.py <workload> <seed> <work-dir> <small 0|1>

Set-up is what a user pays before the first result: interpreter start,
``import repro``, the strict backend resolve, the workload's grids and
topologies, and for ``service-resubmit`` a started (then stopped) server.
"""

import sys
from pathlib import Path


def main(argv) -> None:
    name, seed, work_dir, small = argv
    import repro  # noqa: F401  (the import is part of what is timed)
    from workloads import WORKLOADS

    workload = WORKLOADS[name](int(seed), Path(work_dir), small=small == "1")
    workload.setup()
    workload.close()


if __name__ == "__main__":
    main(sys.argv[1:])
