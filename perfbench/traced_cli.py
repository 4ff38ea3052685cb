"""``python -m thermohorn.cli`` with every layer wrapped in spans.

Usage: traced_cli.py SPANS_FILE <subcommand> [options]

Stdout and the exit code are the CLI's own; the import time and the spans
(with ``cli.main`` as the root) go to SPANS_FILE as one JSON object.
"""

import time

_T0 = time.perf_counter()

import thermohorn.cli  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = tracer.call("cli.main", thermohorn.cli.main, (argv,), {})
    finally:
        tracer.active = False
        tracer.uninstall()
    sys.stdout.flush()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"import_s": _IMPORT_S, "spans": tracer.records()}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
