"""Print the set-up seconds of one workload, measured in this fresh process:

    python3 perfbench/probe.py WORKLOAD

Set-up is the import of the stringalg modules the workload uses plus what
`prepare` builds (algebra contexts, enumerations, parsed items).  The
reference table is read before the clock starts.
"""

import sys
import time

from workloads import WORKLOADS, require_sources


def main(name):
    require_sources()
    wl = WORKLOADS[name]()
    start = time.perf_counter()
    wl.import_package()
    wl.prepare()
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main(sys.argv[1])
