"""Traced entry point for one CLI query: `python3 cli_child.py <cli args>`.

Runs `stringalg.cli.main` with the tracer installed after the import, then
writes the span snapshot as the last line of stderr, after a marker, and
exits with the CLI's exit code.  The parent (the cli-queries workload)
strips that line and merges the snapshots of all its queries.
"""

import json
import sys

from spans import Tracer
from workloads import CliQueries, require_sources


def main(argv):
    require_sources()
    import stringalg.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = stringalg.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write("\n" + CliQueries.SPANS_MARK + json.dumps(tracer.snapshot()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
