"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/prove.py --workloads sweep simulate cli --seeds 1-10

Runs run.py once per (workload, seed) with --trace 0 and the run length
from BENCHMARK.json, one run at a time, and prints for every end-to-end
metric its median and its quartile spread (Q3 - Q1) / median next to a
third of the metric's bound.  A spread above its bound (setup_s excepted)
fails the benchmark's stability requirement.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for wl in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                timeout=600)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return out.returncode
            res = json.loads(out.stdout.strip().splitlines()[-1])
            row = " ".join(f"{k}={v['value']:.5g}"
                           for k, v in res["metrics"].items())
            print(f"{wl} seed={seed} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {row}",
                  flush=True)
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        for name, vals in values.items():
            spread = stats.quartile_spread(vals) if len(vals) > 1 else 0.0
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {wl:9s} {name:12s} median={stats.median(vals):.6g} "
                  f"spread={spread:.4f} bound/3={bounds[name] / 3:.4f}",
                  flush=True)
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
