"""Write the stored reference outputs the benchmark checks against.

For each workload and each seed in ``SEEDS``, runs the checked requests
(1..``checked``) in this process and stores their summaries, floats cut to
10 significant digits, in ``bench/reference/<workload>.json``.

Run it only when the benchmark's inputs or summaries change, never to make
a failing check pass: a changed reference hides a changed program output.

    python3 bench/make_reference.py [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ.pop("IVSSA_THREADS", None)

import workloads  # noqa: E402

SEEDS = range(64)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args()
    os.makedirs(os.path.join(BENCH, "reference"), exist_ok=True)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    for name in args.workload:
        cls = workloads.WORKLOADS[name]
        seeds = {}
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as workdir:
                w = cls(seed, workdir)
                w.setup()
                seeds[str(seed)] = [
                    workloads.rounded(w.summarize(w.request(i)))
                    for i in range(1, w.checked + 1)
                ]
        doc = {
            "workload": name,
            "requests_checked": cls.checked,
            "rtol": workloads.RTOL,
            "atol": workloads.ATOL,
            "seeds": seeds,
        }
        path = os.path.join(BENCH, "reference", f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
