"""Compare this checkout's outputs with the stored benchmark references.

For each workload, and each seed stored in ``bench/reference/<workload>.json``
(0-63), runs the checked requests 1..``checked`` in this process, as
``bench/make_reference.py`` does, and compares their summaries with the
stored ones through ``workloads.compare``: integers, booleans and strings
exactly, floats within its RTOL and ATOL.  It reads ``bench/`` and writes
nothing there; the CLI workload's input and output files go to a temporary
directory.  Every mismatch is printed with its workload, seed, request and
field, and the exit code is 1 when there is one.

    python3 scripts/check_bench_reference.py [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
sys.dont_write_bytecode = True  # no __pycache__ under bench/
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import workloads  # noqa: E402


def check(name: str) -> list[str]:
    """Mismatches of every stored seed of one workload, one line each."""
    with open(os.path.join(BENCH, "reference", f"{name}.json"), encoding="utf-8") as fh:
        stored = json.load(fh)["seeds"]
    cls = workloads.WORKLOADS[name]
    errors = []
    for seed, refs in stored.items():
        with tempfile.TemporaryDirectory(prefix=f"ivssa-{name}-") as workdir:
            w = cls(int(seed), workdir)
            w.setup()
            for i, ref in enumerate(refs, start=1):
                # the JSON round trip the benchmark applies before comparing
                got = json.loads(json.dumps(w.summarize(w.request(i))))
                errors += [
                    f"{name} seed {seed} request {i}: {e}" for e in workloads.compare(ref, got)
                ]
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--workload", nargs="*", default=list(workloads.WORKLOADS),
        choices=list(workloads.WORKLOADS),
    )
    args = ap.parse_args()
    failed = False
    for name in args.workload:
        start = time.perf_counter()
        errors = check(name)
        failed = failed or bool(errors)
        for e in errors:
            print(e)
        status = f"{len(errors)} mismatches" if errors else "ok"
        print(f"{name}: {status} ({time.perf_counter() - start:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
