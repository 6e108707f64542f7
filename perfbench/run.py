"""movingbed benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is taken from src/,
not from an installed copy).  Each workload runs in a fresh worker process
with BLAS and OpenMP pinned to one thread and TMB_THREADS unset.

--trace 0 prints the end-to-end metrics: setup_s is the median time,
over several fresh workers, from process start to the end of set-up
(interpreter start, ``import movingbed``, input generation and warm-up);
the other metrics come from one worker that then runs ops for --seconds.
All end-to-end times are scaled to reference machine speed (calib.py).
--trace 1 times a fixed, seed-determined set of ops untraced and then with
layer wrappers installed, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines above it list every
metric with its unit, the tail percentile and its sample count, the
failure share and the recorded environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "simulate", "cli")
SETUP_SAMPLES = 5          # fresh workers timed to set-up; the last one runs
WORKER_GRACE_S = 120       # beyond --seconds, before a worker is killed


def pin_environment() -> None:
    """Settings every child process (workers, kernels, CLI runs) inherits."""
    env = os.environ
    env.pop("TMB_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    path = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)


class Worker:
    """A worker process; ``ready_s`` is the time from spawn to READY."""

    def __init__(self, args, workdir: Path, setup_only: bool):
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir)]
        if setup_only:
            cmd.append("--setup-only")
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                     text=True)
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - t0
        if line.strip() != "READY":
            self.finish(timeout=WORKER_GRACE_S)
            raise RuntimeError(f"worker set-up failed (exit "
                               f"{self.proc.returncode})")

    def finish(self, timeout: float) -> str:
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError(f"worker exceeded {timeout:.0f} s; killed")
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited {self.proc.returncode}")
        return out


def run(args, scratch: Path) -> dict:
    """Set-up samples interleaved with spawn-kernel samples, then the run.

    Set-up is mostly interpreter start and imports, the work the spawn
    kernel does, so the kernel samples scale it to reference speed.
    """
    kernel, ref_s = calib.KERNELS["spawn"]
    setup, cals = [], []
    if not args.trace:
        cals.append(kernel())
        for i in range(SETUP_SAMPLES - 1):
            probe = Worker(args, scratch / f"setup{i}", setup_only=True)
            probe.finish(timeout=WORKER_GRACE_S)
            setup.append(probe.ready_s)
            cals.append(kernel())
    worker = Worker(args, scratch / "run", setup_only=False)
    setup.append(worker.ready_s)
    out = worker.finish(timeout=args.seconds + WORKER_GRACE_S)
    res = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        factor = ref_s / stats.median(cals)
        res["metrics"] = {"setup_s": {"value": stats.median(setup) * factor,
                                      "unit": "s"}, **res["metrics"]}
        res["detail"]["setup_wall_s"] = sorted(setup)
        res["detail"]["setup_speed_factor"] = factor
    return res


def report(args, res: dict) -> None:
    print(f"movingbed benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    env = " ".join(f"{k}={v}" for k, v in res["env"].items())
    print(f"  environment: {env}")
    for name, m in res["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    d = res["detail"]
    if "tail" in d:
        t, wall = d["tail"], d["wall"]
        print(f"  op_tail_s is p{t['pct']} of {t['n']} successful ops "
              f"({t['beyond']} beyond it)")
        print(f"  {'failed_frac':40s} {d['failed_frac']:>16.6g} fraction")
        if d["cell_steps_per_s"]:
            print(f"  {'cell_steps_per_s':40s} "
                  f"{d['cell_steps_per_s']:>16.6g} 1/s")
        print(f"  wall clock, unscaled (speed factor "
              f"{d['speed_factor']:.4g}):")
        for name, unit in (("ops_per_s", "1/s"), ("op_p50_s", "s"),
                           ("op_tail_s", "s"), ("cell_steps_per_s", "1/s")):
            print(f"    {name:38s} {wall[name]:>16.6g} {unit}")
    print(f"  attempted={res['attempted']} failed={res['failed']} "
          f"by type {res['failures']}")
    for msg in res["wrong"]:
        print(f"  WRONG: {msg}")
    print("  detail: " + json.dumps(d, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "movingbed" / "__init__.py").is_file():
        print(f"error: no movingbed sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    pin_environment()
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    try:
        res = run(args, scratch)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report(args, res)
    print(json.dumps({"correct": res["correct"],
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
