"""Run one labelpure CLI command, optionally traced.

Usage: python3 child.py <spans.json | -> <labelpure arguments...>

With a path as the first argument, the span wrappers are installed before
``labelpure.cli.dispatch`` is called, and the spans are written there as JSON
when the command returns. With ``-`` the command runs exactly as the
``labelpure`` console script runs it. The exit code is dispatch's.
"""

from __future__ import annotations

import json
import sys

import spans


def main(argv: list[str]) -> int:
    out, args = argv[0], argv[1:]
    import labelpure.cli

    if out == "-":
        return labelpure.cli.dispatch(args)
    recorder = spans.Recorder()
    try:
        with spans.tracing(recorder):
            return labelpure.cli.dispatch(args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
