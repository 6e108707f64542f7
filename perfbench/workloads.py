"""The three benchmark workloads: seeded inputs, one op, and its checks.

sweep     one op = dominant_eigenvalue, eigenfunction, adjoint_eigenfunction
          and full_report(fd=True) on one strict-port parameter set drawn
          near the case study (the design-sweep use).
simulate  one op = sim.init + sim.run; blocks of 15 ops cover every
          combination of Nx in {100, 400, 1600}, plain/Strang splitting and
          constant/eigenfunction initial data, plus three equal-velocity
          runs, with the horizon scaled to comparable cell-steps.
cli       one op = one ``python -m movingbed.cli <subcommand>`` process;
          a pass runs all seven subcommands on its own seeded parameter
          files and ranges.  After the timed window the first pass is run
          again and its artifacts must match byte for byte.

Inputs are plain data made from the seed alone; the package only sees the
ModelParams, configs and argv built from them.  Every op calls the package
through module attributes, so a tracer that rebinds them sees the calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import movingbed
from movingbed import charfun, cli, eigfun, sensitivity, sim, spectrum
from movingbed.errors import MovingBedError

# The wide box around the case study v=(1.53,1.12,1.43,1.02), R=18, P=1.03:
# v_i, R and P times (1 +- V_, R_, P_SPREAD).  Every point of it satisfies
# the strict port ordering.  About 14% of its draws make
# adjoint_eigenfunction raise DegenerateNullspace (eigfun.RANK_RTOL = 1e-8
# was tuned on one case), more often the higher R and the lower P.  Timed
# ops must not fail, so they draw R and P from the corner given by
# R_RANGE and P_RANGE (factors of BASE_R and BASE_P), where none of 2400
# draws failed and sigma_7 / sigma_max stayed above 5e-8.  The traced sweep
# run counts the failures on WIDE_PROBE draws of the whole box.
BASE_V = (1.53, 1.12, 1.43, 1.02)
BASE_R, BASE_P = 18.0, 1.03
V_SPREAD, R_SPREAD, P_SPREAD = 0.10, 0.25, 0.10
R_RANGE, P_RANGE = (0.75, 0.95), (1.0, 1.10)
WIDE_PROBE = 40
LIMIT_V = 1.275

FD_TOL = 1e-4             # criterion 4: adjoint vs finite differences
FD_NAMES = ("v1", "v2", "v3", "v4", "R", "P")
FD4_H, FD4_TOL = 5e-4, 1e-12   # the fourth-order re-check, see _fd4
MASS_RTOL = 1e-12         # criterion 10: equal-velocity mass conservation
SIGN_PROBE = 1e-9         # lambda0 +- this must straddle a sign change

SWEEP_STREAM = 1500       # ops generated per seed; more than a run can use
SIM_BLOCKS = 60
SIM_NX = (100, 400, 1600)
SIM_STRICT = ((False, "constant"), (True, "eigenfunction"),
              (False, "eigenfunction"), (True, "constant"))
# equal-velocity runs: Strang at Nx=100 puts a fifth of the ops in the
# slowest group, so the tail percentile sits inside it, not at its edge
SIM_LIMIT = ((100, True), (400, False), (1600, False))
GOLDEN = 0.6180339887498949
SIM_CELL_STEPS = 1_600_000  # 4 * Nx * steps per op, on average
SIM_RECORD_EVERY = 50
CLI_SETS = 40             # one per pass; more than a run can use
CLI_SIM_NX, CLI_SIM_STEPS = 64, (300, 1500)
CLI_SUBCOMMANDS = ("analyze", "spectrum", "sensitivity", "steady", "limit",
                   "delta-scan", "simulate")

# ops in the fixed set a traced run times twice (untraced, then traced)
TRACE_OPS = {"sweep": 6, "simulate": 15, "cli": 7}


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


class ToleranceMissed(Exception):
    """An op returned, but an accuracy criterion missed its tolerance; the
    op counts as failed without the output being called wrong.  The first
    argument names the failure kind."""


class Refused(Exception):
    """The CLI exited with one of its typed failure codes (2, 3 or 4), the
    subprocess form of a MovingBedError.  The first argument names the
    failure kind."""


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"movingbed-perfbench/{workload}/{seed}")


def _jitter(rng, base, spread):
    return base * (1.0 + rng.uniform(-spread, spread))


def draw_strict(rng) -> dict:
    return {"v": [_jitter(rng, b, V_SPREAD) for b in BASE_V],
            "R": BASE_R * rng.uniform(*R_RANGE),
            "P": BASE_P * rng.uniform(*P_RANGE), "f0": 0.0}


def draw_wide(rng) -> dict:
    return {"v": [_jitter(rng, b, V_SPREAD) for b in BASE_V],
            "R": _jitter(rng, BASE_R, R_SPREAD),
            "P": _jitter(rng, BASE_P, P_SPREAD), "f0": 0.0}


def draw_limit(rng) -> dict:
    v = _jitter(rng, LIMIT_V, V_SPREAD)
    return {"v": [v, v, v, v], "R": _jitter(rng, BASE_R, R_SPREAD),
            "P": _jitter(rng, BASE_P, P_SPREAD), "f0": 0.0}


def to_params(d: dict) -> movingbed.ModelParams:
    return movingbed.params.params_from_dict(d)


def courant(d: dict) -> float:
    """The simulator's default Courant parameter for these velocities."""
    return 0.9 / max(max(d["v"]), 1.0)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_inputs(seed: int) -> list:
    rng = rng_for("sweep", seed)
    return [draw_strict(rng) for _ in range(SWEEP_STREAM)]


def wide_inputs(seed: int) -> list:
    rng = rng_for("wide", seed)
    return [draw_wide(rng) for _ in range(WIDE_PROBE)]


class Sweep:
    kernel = "compute"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.inputs = sweep_inputs(seed)

    def warm_up(self):
        # every code path of run() except the FD re-solves, which only
        # repeat dominant_eigenvalue
        p = movingbed.case_study()
        lam = spectrum.dominant_eigenvalue(p)
        eigfun.eigenfunction(lam, p)
        eigfun.adjoint_eigenfunction(lam, p)
        sensitivity.full_report(p, fd=False)

    def stream(self):
        return iter(self.inputs)

    def replay(self) -> list:
        return []

    def trace_set(self) -> list:
        return self.inputs[:TRACE_OPS["sweep"]]

    def wide_failures(self) -> int:
        """Draws of the wide box whose lambda0 or eigenfunction solves
        raise; a fix of RANK_RTOL shows here, not in the timed ops."""
        failed = 0
        for d in wide_inputs(self.seed):
            p = to_params(d)
            try:
                lam = spectrum.dominant_eigenvalue(p)
                eigfun.eigenfunction(lam, p)
                eigfun.adjoint_eigenfunction(lam, p)
            except MovingBedError:
                failed += 1
        return failed

    def prepare(self, inp):
        return to_params(inp)

    def run(self, p):
        lam = spectrum.dominant_eigenvalue(p)
        eigfun.eigenfunction(lam, p)
        eigfun.adjoint_eigenfunction(lam, p)
        rep = sensitivity.full_report(p, fd=True)
        return p, lam, rep

    def check(self, inp, out) -> int:
        p, lam, rep = out
        M0 = spectrum.bracket_bound(p).M0
        if not -M0 <= lam < 0.0:
            raise CheckFailed(f"lambda0={lam} outside [-M0, 0), M0={M0}")
        lo = charfun.delta_sign_log(lam - SIGN_PROBE, p)[0]
        hi = charfun.delta_sign_log(lam + SIGN_PROBE, p)[0]
        if lo * hi >= 0:
            raise CheckFailed(f"no sign change of Delta around {lam}")
        if rep.lam.real != lam:
            raise CheckFailed(f"full_report lambda0 {rep.lam} != {lam}")
        analytic = [*rep.dv, rep.dR, rep.dP]
        for name, a, err in zip(FD_NAMES, analytic, rep.fd_check):
            if err <= FD_TOL:
                continue
            err = abs(a - _fd4(p, name)) / max(abs(a), 1e-3)
            if not err <= FD_TOL:
                raise ToleranceMissed(f"FD disagreement > {FD_TOL}", name,
                                      float(err))
        return 0


def _fd4(p, name: str) -> float:
    """d lambda0 / d name by Richardson-extrapolated central differences.

    full_report's FD reference is second order with h = 1e-4; its
    truncation error, h^2 lambda0''' / 6, reaches 5e-7 on some draws.
    Where |d lambda0 / d name| is below a few 1e-3 that alone exceeds
    FD_TOL relative, although the adjoint value is right: the central
    difference converges to it as h^2.  A component that misses is checked
    again against this fourth-order reference, to the same tolerance.
    """
    theta = getattr(p, name)
    h = FD4_H * max(abs(theta), 1.0)

    def central(step):
        up = spectrum.dominant_eigenvalue(replace(p, **{name: theta + step}),
                                          FD4_TOL)
        down = spectrum.dominant_eigenvalue(
            replace(p, **{name: theta - step}), FD4_TOL)
        return (up - down) / (2.0 * step)
    return (4.0 * central(h / 2) - central(h)) / 3.0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _sim_steps(nx: int, k: int) -> int:
    """Steps of the k-th op: about SIM_CELL_STEPS cell-steps, times a
    multiplier in [0.75, 1.25) from the golden-ratio sequence.  Op times
    then spread continuously (a median or tail that sits between two
    clusters of op times jumps between them on small shifts), and the
    spread is the same for every seed instead of a fresh random draw."""
    mult = 0.75 + 0.5 * ((k * GOLDEN) % 1.0)
    return round(SIM_CELL_STEPS / (4 * nx) * mult)


def simulate_inputs(seed: int) -> list:
    """Blocks of 15 ops with the same composition and order in every block
    and for every seed; only the parameters and wave data are drawn.  A
    run that stops mid-block then still sees the same mix."""
    rng = rng_for("simulate", seed)
    ops = []
    for _ in range(SIM_BLOCKS):
        for strang, initial in SIM_STRICT:
            for nx in SIM_NX:
                ops.append({"params": draw_strict(rng), "Nx": nx,
                            "strang": strang, "initial": initial,
                            "steps": _sim_steps(nx, len(ops))})
        for nx, strang in SIM_LIMIT:
            ops.append({"params": draw_limit(rng), "Nx": nx,
                        "strang": strang, "initial": "wave",
                        "steps": _sim_steps(nx, len(ops)),
                        "wave": [rng.uniform(0.2, 0.8), rng.randint(1, 4),
                                 rng.uniform(0.0, 2.0 * math.pi)]})
    return ops


def _wave(inp) -> tuple:
    """Nonnegative travelling-wave data for the equal-velocity runs."""
    amp, k, phase = inp["wave"]
    x = sim.cell_centers(inp["Nx"])
    c = 1.0 + amp * np.sin(0.5 * math.pi * k * x + phase)
    q = inp["params"]["P"] * (1.0 + amp * np.cos(0.5 * math.pi * k * x
                                                 + phase))
    return c, q


def sim_config(inp) -> "sim.SimConfig":
    nx = inp["Nx"]
    return sim.SimConfig(Nx=nx, T=inp["steps"] * courant(inp["params"]) / nx,
                         record_every=SIM_RECORD_EVERY, strang=inp["strang"])


class Simulate:
    kernel = "compute"

    def __init__(self, seed: int, workdir: Path):
        self.inputs = simulate_inputs(seed)

    def warm_up(self):
        p = movingbed.case_study()
        config = sim.SimConfig(Nx=100, T=0.5)
        sim.run(sim.init(config, p, "eigenfunction"), config, p)

    def stream(self):
        return iter(self.inputs)

    def replay(self) -> list:
        return []

    def trace_set(self) -> list:
        return self.inputs[:TRACE_OPS["simulate"]]

    def prepare(self, inp):
        initial = _wave(inp) if inp["initial"] == "wave" else inp["initial"]
        return to_params(inp["params"]), sim_config(inp), initial

    def run(self, prepared):
        p, config, initial = prepared
        state0 = sim.init(config, p, initial)
        state, rows = sim.run(state0, config, p)
        return p, config, state0, state, rows

    def check(self, inp, out) -> int:
        p, config, state0, state, rows = out
        if not (np.all(np.isfinite(state.c)) and np.all(np.isfinite(state.q))):
            raise CheckFailed("non-finite final state")
        if state0.c[:, 1:].min() >= 0.0 and state0.q[:, 1:].min() >= 0.0:
            low = min(state.c[:, 1:].min(), state.q[:, 1:].min())
            if low < 0.0:
                raise CheckFailed(f"positivity lost: min {low:.3e}")
        if p.limit_case:
            m0 = rows[0].mass
            drift = max(abs(r.mass - m0) for r in rows)
            if drift > MASS_RTOL * abs(m0):
                raise CheckFailed(f"mass drift {drift / abs(m0):.3e} "
                                  f"> {MASS_RTOL}")
        steps = round(state.t / state.dt)
        return 4 * config.Nx * steps


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def cli_inputs(seed: int) -> list:
    """CLI_SETS argument sets; each one covers all seven subcommands.

    Parameters, ranges and the feed are drawn.  Grid sizes and the
    simulate step count of pass k come from the golden-ratio sequence, as
    in _sim_steps: op times spread continuously, the same way for every
    seed.
    """
    rng = rng_for("cli", seed)
    sets = []
    for k in range(CLI_SETS):
        strict = draw_strict(rng)

        def size(lo, hi, field):
            return lo + round((hi - lo) * ((k * GOLDEN + field / 4) % 1.0))
        sets.append({
            "strict": strict,
            "limit": draw_limit(rng),
            "f0": round(rng.uniform(0.5, 2.0), 6),
            "spectrum_range": [round(-rng.uniform(25.0, 35.0), 6),
                               round(-rng.uniform(0.005, 0.02), 6)],
            "scan_range": [round(-rng.uniform(40.0, 60.0), 6),
                           round(rng.uniform(10.0, 20.0), 6)],
            "limit_k": rng.randint(60, 100),
            "profile_grid": size(51, 401, 0),
            "spectrum_grid": size(200, 800, 1),
            "scan_grid": size(300, 1500, 2),
            "sim_T": size(*CLI_SIM_STEPS, 3) * courant(strict) / CLI_SIM_NX,
        })
    return sets


def cli_argvs(sets: list, workdir: Path) -> list:
    """(set index, subcommand, argv) for every set, writing the params files."""
    ops = []
    for i, s in enumerate(sets):
        strict = workdir / f"params_{i}.json"
        limit = workdir / f"limit_{i}.json"
        strict.write_text(json.dumps(s["strict"]) + "\n")
        limit.write_text(json.dumps(s["limit"]) + "\n")
        lo, hi = s["spectrum_range"]
        slo, shi = s["scan_range"]
        common = ["--params", str(strict)]
        grid = ["--grid", str(s["profile_grid"])]
        argv = {
            "analyze": ["analyze", *common, *grid],
            "spectrum": ["spectrum", *common, f"--range={lo}:{hi}",
                         "--grid", str(s["spectrum_grid"])],
            "sensitivity": ["sensitivity", *common],
            "steady": ["steady", *common, "--f0", str(s["f0"]), *grid],
            "limit": ["limit", "--params", str(limit), "--grid",
                      str(s["limit_k"])],
            "delta-scan": ["delta-scan", *common, f"--range={slo}:{shi}",
                           "--grid", str(s["scan_grid"])],
            "simulate": ["simulate", *common, "--Nx", str(CLI_SIM_NX),
                         "--T", repr(s["sim_T"]), "--record-every", "10"],
        }
        for sub in CLI_SUBCOMMANDS:
            out = workdir / f"out_{i}_{sub}"
            ops.append((i, sub, argv[sub] + ["--out", str(out)]))
    return ops


def digest_dir(path: Path) -> dict:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(Path(path).iterdir()) if f.is_file()}


def _out_dir(argv) -> Path:
    return Path(argv[argv.index("--out") + 1])


class Cli:
    kernel = "spawn"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.ops = cli_argvs(cli_inputs(seed), workdir)
        self.reference = {}        # argv tuple -> artifact digests
        self.cell_steps = {}       # argv tuple -> 4 * Nx * steps

    def warm_up(self):
        subprocess.run([sys.executable, "-m", "movingbed.cli", "--version"],
                       cwd=self.workdir, stdout=subprocess.DEVNULL,
                       check=True, timeout=120)

    def stream(self):
        return iter(self.ops)

    def trace_set(self) -> list:
        return self.ops[:TRACE_OPS["cli"]]

    def replay(self) -> list:
        """The first pass's ops that ran, to be run again and compared."""
        first = self.ops[:len(CLI_SUBCOMMANDS)]
        return [op for op in first if tuple(op[2]) in self.reference]

    def prepare(self, op):
        return op

    def run(self, op):
        _, _, argv = op
        proc = subprocess.run([sys.executable, "-m", "movingbed.cli", *argv],
                              cwd=self.workdir, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=150)
        return proc.returncode, proc.stderr

    def run_in_process(self, op):
        _, _, argv = op
        return cli.main(list(argv)), ""

    def check(self, op, out) -> int:
        _, sub, argv = op
        code, err = out
        if code != 0:
            tail = err.strip().splitlines()[-1:] if err else []
            if code in (2, 3, 4):
                raise Refused(f"cli exit {code}", sub, " ".join(tail))
            raise CheckFailed(f"{sub}: exit code {code}: {' '.join(tail)}")
        got = digest_dir(_out_dir(argv))
        key = tuple(argv)
        ref = self.reference.setdefault(key, got)
        if got != ref:
            raise CheckFailed(f"{sub}: artifacts differ from the first "
                              f"invocation of the same argv")
        if sub != "simulate":
            return 0
        if key not in self.cell_steps:
            summary = json.loads((_out_dir(argv)
                                  / "simulate_summary.json").read_text())
            steps = math.ceil(summary["T"] / summary["dt"] - 1e-12)
            self.cell_steps[key] = 4 * summary["Nx"] * steps
        return self.cell_steps[key]


WORKLOADS = {"sweep": Sweep, "simulate": Simulate, "cli": Cli}


def bytes_written(ops) -> int:
    """Total size of the artifacts the given CLI ops left behind."""
    return sum(f.stat().st_size for _, _, argv in ops
               for f in _out_dir(argv).iterdir() if f.is_file())
