"""Bootstrap for a traced CLI job.

Usage: ``python3 perfbench/clijob.py --op N --probe FILE -- <monotrack CLI args>``

It imports ``monotrack.cli`` (timing the import), installs the benchmark's
wrappers, calls ``monotrack.cli.main`` with the given arguments, writes its
spans, linalg counts and import time to the probe file and exits with the
CLI's exit code.
"""

from __future__ import annotations

import argparse
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--op", type=int, required=True)
    parser.add_argument("--probe", required=True)
    args = parser.parse_args(argv[:split])

    start = time.perf_counter()
    import monotrack.cli

    import_ms = (time.perf_counter() - start) * 1e3
    import tracer

    rec = tracer.Recorder(spans=True)
    rec.install()
    rec.op = args.op
    rec.active = True
    try:
        monotrack.cli.main(argv[split + 1 :])
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        rec.active = False
    tracer.dump(
        args.probe,
        {
            "import_ms": import_ms,
            "spans": rec.columns(),
            "linalg_calls": sum(rec.linalg_calls.values()),
            "linalg_flops": rec.linalg_flops,
        },
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
