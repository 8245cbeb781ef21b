"""Run one ``ipclr`` command with every layer wrapper installed.

Usage: python3 cli_traced.py SPANS_JSON ARG...

The command's spans, including one ``cli.main`` span around the whole
command with the package import time in its work record, are written to
SPANS_JSON when the command ends.  The exit code is the command's.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import ipclr.cli  # noqa: E402

import_s = time.perf_counter() - t0

from layers import instrument  # noqa: E402
from spans import Recorder, to_json  # noqa: E402


def main(dump: str, argv: list[str]) -> int:
    recorder = Recorder()
    instrument(recorder)
    with recorder.span("cli.main") as span:
        span.work["import_s"] = import_s
        rc = ipclr.cli.main(argv)
    Path(dump).write_text(json.dumps(to_json(recorder.spans)))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
