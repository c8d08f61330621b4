"""Run ``repro serve`` with span wrappers installed (the traced run).

Usage: ``python3 perfbench/serve_traced.py SPAN_DIR serve CORPUS ...``

Wrappers are installed before the CLI builds the engine, so the replica
processes it forks inherit them.  The parent writes its spans when the
CLI returns (SIGINT shuts the server down cleanly); each replica writes
its own when it exits.
"""

import os
import sys
from pathlib import Path

import common
import spans


def main(argv: list[str]) -> int:
    common.require_program()
    span_dir, cli_args = Path(argv[0]), argv[1:]
    recorder = spans.SpanRecorder()
    spans.install(recorder, spans.SERVING_TARGETS, probes=True)
    recorder.dump_on_exit(span_dir, "replica")
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(span_dir / f"spans-parent-{os.getpid()}.json",
                      "parent")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
