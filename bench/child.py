"""Run one symtrace CLI command in this fresh interpreter, as `symtrace` would.

    python3 bench/child.py SIDE_FILE TRACE CLI_ARGS...

stdout and the exit code are exactly the CLI's.  The timings (when
`symtrace.cli` finished importing, on the clock the parent also reads,
and the in-process `dispatch` time) go to SIDE_FILE as JSON; with TRACE=1
the tracer's counts go there too and its spans to SIDE_FILE.spans.
"""

import sys
import time

import symtrace.cli

IMPORTED = time.monotonic()


def main(argv: list[str]) -> int:
    import json

    side, trace, *cli_argv = argv
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    rc = symtrace.cli.dispatch(cli_argv)
    dispatch_s = time.perf_counter() - t0
    sys.stdout.flush()
    doc = {"imported": IMPORTED, "dispatch_s": dispatch_s, "rc": rc}
    if tracer is not None:
        doc["trace"] = tracer.report()
        with open(side + ".spans", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    with open(side, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
