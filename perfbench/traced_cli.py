"""Run one growthopt CLI invocation with span tracing.

Usage: python3 perfbench/traced_cli.py SPANS_PATH SUBCOMMAND [ARGS...]

Installs the benchmark's tracer over the library's public functions, runs
``growthopt.cli.run`` with the remaining arguments, writes the spans to
SPANS_PATH and exits with the CLI's exit code. Standard output and error
are the CLI's own, so they can be compared byte for byte with an untraced
``python -m growthopt.cli`` run.
"""

import sys

import growthopt.cli

from tracer import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op = 0
    with tracer:
        code = growthopt.cli.run(argv)
    sys.stdout.flush()
    tracer.write(spans_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
