"""Run one `nearrep` command line in a fresh process under the tracer.

    python perfbench/child.py SUMMARY.json SPANS.json.gz <nearrep arguments...>

The traced run of the `cli-cold` workload uses this in place of the plain
entry point. It imports `nearrep.cli` (from PYTHONPATH), wraps the public
functions, runs `main(argv)` exactly as the console script does, and writes
the span summary and the raw spans before exiting with main's exit code.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    summary_path, spans_path, *argv = sys.argv[1:]
    from nearrep.cli import main as nearrep_main
    tracer = Tracer()
    tracer.install()
    tracer.begin(" ".join(argv))
    try:
        return nearrep_main(argv)
    finally:
        tracer.uninstall()
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)
        tracer.dump_spans(spans_path)


if __name__ == "__main__":
    sys.exit(main())
