"""Run one CLI request in a fresh process with the benchmark's tracer on.

    python3 perfbench/traced_cli.py SPANS.json <cli arguments...>

Used by the traced cli-cold run: the request's output goes to stdout exactly
as `python -m monopole_spectra.cli` would print it, and the recorded spans
are written to SPANS.json.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from monopole_spectra import cli

    tracer = Tracer()
    with tracer:
        code = cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh, default=str)
    return code


if __name__ == "__main__":
    sys.exit(main())
