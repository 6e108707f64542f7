"""One workload in one process: set up, then measure or trace.

Started by run.py with the thread pinning already in the environment.
Prints ``READY`` once set-up (import, input generation, warm-up) is done,
then, unless ``--setup-only``, one JSON line with the raw results.

    python perfbench/worker.py --workload sweep --seed 1 --seconds 30 \
        --trace 0 --workdir <dir>
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy
from movingbed.errors import MovingBedError

import calib
import stats
import workloads
from tracer import Tracer
from workloads import CheckFailed, Refused, ToleranceMissed

IMPORT_PROBES = 3
CLI_WALL = [f"cli.{sub}.wall_s" for sub in workloads.CLI_SUBCOMMANDS]


class Tally:
    """Outcome of a sequence of ops."""

    def __init__(self):
        self.ok_times = []
        self.failures = Counter()
        self.wrong = []
        self.attempted = 0
        self.cell_steps = 0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def run(self, wl, inp, call, tracer=None):
        """Time call(prepared) and check its output outside the timing.

        Returns the op's time when it succeeded, else None.
        """
        self.attempted += 1
        prepared = wl.prepare(inp)
        t0 = time.perf_counter()
        try:
            out = call(prepared)
        except MovingBedError as exc:
            self.failures[type(exc).__name__] += 1
            return None
        except Exception as exc:  # a traceback is never a valid outcome
            self.failures[type(exc).__name__] += 1
            self.wrong.append(f"{type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - t0
        try:
            if tracer is None:
                cells = wl.check(inp, out)
            else:
                with tracer.suspended():
                    cells = wl.check(inp, out)
        except (Refused, ToleranceMissed) as exc:
            self.failures[exc.args[0]] += 1
            return None
        except CheckFailed as exc:
            self.failures["CheckFailed"] += 1
            self.wrong.append(str(exc))
            return None
        self.ok_times.append(elapsed)
        self.cell_steps += cells
        return elapsed


def measure(wl, seconds: float) -> dict:
    """Closed loop for ``seconds``, and on until one op has succeeded.
    Each op's time is scaled to reference speed by the kernel samples
    around it (see calib.py)."""
    kernel, ref_s = calib.KERNELS[wl.kernel]
    kernel()                # the first run pays for cold caches
    cals = [kernel()]
    tally = Tally()
    spent, op_times = [], []
    deadline = time.perf_counter() + seconds
    for inp in wl.stream():
        t0 = time.perf_counter()
        if t0 >= deadline and tally.ok_times:
            break
        op_times.append(tally.run(wl, inp, wl.run))
        spent.append(time.perf_counter() - t0)
        cals.append(kernel())
    replay = Tally()
    for inp in wl.replay():
        replay.run(wl, inp, wl.run)
    tally.wrong.extend(replay.wrong)
    if not tally.ok_times:
        raise SystemExit(f"no op of the stream succeeded "
                         f"({dict(tally.failures)})")
    # op i sits between samples i and i+1; a 4-sample median window
    # follows drift over a few ops and ignores single-sample spikes
    factors = [ref_s / stats.median(cals[max(0, i - 1):i + 3])
               for i in range(len(spent))]
    ref_times = [t * f for t, f in zip(op_times, factors) if t is not None]
    loop_s = sum(spent)
    loop_ref_s = sum(s * f for s, f in zip(spent, factors))
    ok = len(ref_times)
    tail = stats.tail(ref_times)
    return {
        "tally": tally,
        "metrics": {
            "ops_per_s": (ok / loop_ref_s, "1/s"),
            "op_p50_s": (stats.median(ref_times), "s"),
            "op_tail_s": (tail["value"], "s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        },
        "detail": {
            "tail": tail,
            "failed_frac": tally.failed / tally.attempted,
            "cell_steps_per_s": tally.cell_steps / loop_ref_s,
            "speed_factor": loop_ref_s / loop_s,
            "wall": {"loop_s": loop_s, "ops_per_s": ok / loop_s,
                     "op_p50_s": stats.median(tally.ok_times),
                     "op_tail_s": stats.tail(tally.ok_times)["value"],
                     "cell_steps_per_s": tally.cell_steps / loop_s},
        },
    }


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            **{k: os.environ.get(k, "unset") for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "TMB_THREADS")}}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any CLI child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def import_seconds() -> float:
    """`import movingbed` in a fresh interpreter, median of a few."""
    code = ("import time; t = time.perf_counter(); import movingbed; "
            "print(time.perf_counter() - t)")
    samples = [float(subprocess.run([sys.executable, "-c", code],
                                    capture_output=True, text=True,
                                    check=True, timeout=120).stdout)
               for _ in range(IMPORT_PROBES)]
    return stats.median(samples)


def trace(wl) -> dict:
    """Run the fixed trace set untraced, then traced; derive layer metrics."""
    ops = wl.trace_set()
    in_process = isinstance(wl, workloads.Cli)
    call = wl.run_in_process if in_process else wl.run

    base = Tally()
    t0 = time.perf_counter()
    for inp in ops:
        base.run(wl, inp, call)
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    tally = Tally()
    with tracer.installed():
        t0 = time.perf_counter()
        for inp in ops:
            if in_process:
                with tracer.span(f"cli.{inp[1]}"):
                    tally.run(wl, inp, call, tracer)
            else:
                tally.run(wl, inp, call, tracer)
        traced_s = time.perf_counter() - t0
    metrics = layer_metrics(tracer)
    metrics["cli.import_s"] = (import_seconds(), "s")
    if in_process:
        metrics["cli.bytes_written"] = (workloads.bytes_written(ops), "count")
    if isinstance(wl, workloads.Sweep):
        metrics["eigfun.wide_box_failed"] = (wl.wide_failures(), "count")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "fraction")
    tally.failures.update(base.failures)
    tally.wrong.extend(base.wrong)
    tally.attempted += base.attempted
    return {"tally": tally, "metrics": metrics,
            "detail": {"untraced_s": untraced_s, "traced_s": traced_s,
                       "spans": len(tracer.spans)}}


def layer_metrics(tracer: Tracer) -> dict:
    totals = tracer.layer_totals()
    empty = {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0}

    def get(name):
        return totals.get(name, empty)

    def per_call_us(agg):
        return 1e6 * agg["total_s"] / agg["calls"] if agg["calls"] else 0.0

    rm, de = get("charfun.return_map"), get("spectrum.dominant_eigenvalue")
    solve, steps = get("eigfun.solve"), get("sim.mass_transfer_step")["calls"]
    m = {
        "charfun.return_map.calls": (rm["calls"], "count"),
        "charfun.return_map.self_s": (rm["self_s"], "s"),
        "charfun.return_map.us_per_call": (per_call_us(rm), "us"),
        "charfun.zone_eigen.calls": (get("charfun.zone_eigen")["calls"],
                                     "count"),
        "charfun.zone_eigen.self_s": (get("charfun.zone_eigen")["self_s"],
                                      "s"),
        "spectrum.dominant_eigenvalue.calls": (de["calls"], "count"),
        "spectrum.dominant_eigenvalue.self_s": (de["self_s"], "s"),
        "spectrum.delta_evals_per_solve": (
            tracer.count_under("charfun.return_map",
                               "spectrum.dominant_eigenvalue") / de["calls"]
            if de["calls"] else 0.0, "count"),
        "eigfun.solve.calls": (solve["calls"], "count"),
        "eigfun.solve.failed": (solve["raised"], "count"),
        "eigfun.solve.self_s": (solve["self_s"], "s"),
        "sensitivity.fd_resolves": (
            tracer.count_under("spectrum.dominant_eigenvalue",
                               "sensitivity.central_difference",
                               direct=True), "count"),
        "sensitivity.inner_product.calls": (
            get("sensitivity.inner_product")["calls"], "count"),
        "sim.steps": (steps, "count"),
        "sim.us_per_step": (1e6 * get("sim.run")["total_s"] / steps
                            if steps else 0.0, "us"),
        "cli.io.self_s": (get("cli.io")["self_s"], "s"),
        "cli.bytes_written": (0, "count"),
        "eigfun.wide_box_failed": (0, "count"),
    }
    for name in ("spectrum.real_root_scan", "spectrum.collocation_spectrum",
                 "spectrum.limit_spectrum", "eigfun.evaluate",
                 "sensitivity.full_report", "sim.advection_step",
                 "sim.mass_transfer_step", "sim.diagnostics", "sim.setup"):
        m[f"{name}.self_s"] = (get(name)["self_s"], "s")
    for name in CLI_WALL:
        m[name] = (get(name[:-len(".wall_s")])["total_s"], "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    wl.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    res = trace(wl) if args.trace else measure(wl, args.seconds)
    tally = res["tally"]
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": dict(sorted(tally.failures.items())),
        "wrong": tally.wrong[:10],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()},
        "detail": res["detail"],
        "env": environment(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
