"""Run one voikit CLI command with the benchmark's span wrappers installed.

Usage: python cli_child.py SPANS_JSON COMMAND [ARGS...]

The traced cli-session pass starts this script in a fresh interpreter in
place of ``python -m voikit.cli``, so each command keeps its cold start.
It times ``import voikit.cli``, installs the wrappers, calls
``voikit.cli.main`` and writes its spans to SPANS_JSON on exit.
"""

import json
import sys
import time


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import voikit.cli

    import_s = time.perf_counter() - t0
    from tracing import Tracer, install

    tracer = Tracer()
    tracer.sample("cli.import_s", import_s)
    install(tracer)
    try:
        return voikit.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
