"""Traced stand-in for ``python -m qretrodict.cli run <scenario>``.

Usage: ``python perfbench/traced_cli.py SCENARIO SPANS_OUT OP_ID``.  Times
the import of ``qretrodict.cli`` as the span ``cli.import``, wraps the
traced modules' public functions, runs the CLI's ``main(["run",
SCENARIO])`` and writes the spans to SPANS_OUT before exiting with the
CLI's exit code.  Stdout is the CLI's own, so its output check applies.
"""

import sys

from tracing import Tracer


def main() -> int:
    scenario, spans_out, op_id = sys.argv[1], sys.argv[2], int(sys.argv[3])
    tracer = Tracer(op=op_id)
    with tracer.span("cli.import"):
        import qretrodict.cli as cli
    tracer.install()
    try:
        return cli.main(["run", scenario])
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        tracer.export(spans_out)


if __name__ == "__main__":
    sys.exit(main())
