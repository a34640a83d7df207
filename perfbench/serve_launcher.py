"""Start ``repro-mcn serve`` with the span recorder installed (traced runs only).

Usage: ``python3 perfbench/serve_launcher.py TRACE_OUT serve [serve flags...]``

The launcher installs :mod:`tracer` into this process and then hands over
to the CLI's own entry point with the remaining arguments, so the server
runs exactly the code and flags an untraced ``repro-mcn serve`` would.
When the CLI returns (after SIGTERM drains it) the recorded spans are
written to ``TRACE_OUT``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import SpanRecorder, install  # noqa: E402


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder()
    install(recorder, serve=True)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
