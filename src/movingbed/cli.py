"""Command-line surface wiring the analysis modules to CSV/JSON artifacts.

Subcommands: analyze, spectrum, simulate, sensitivity, limit, steady,
delta-scan.  Every run writes a manifest.json into the output directory
echoing the command, parameters, and flags, so artifacts are
reproducible byte for byte (nothing in the toolkit is randomized).

Exit codes: 0 success, 2 parameter/validation problems (including
malformed JSON), 3 numerical failures (no bracket, singular system),
4 I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import reprlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import sim as simmod
from .charfun import return_map
from .eigfun import evaluate, steady_state
from .errors import (InsufficientSamples, NumericalError, ValidationError)
from .params import (PRESETS, ModelParams, check_count, load_params,
                     params_to_dict, time_constant)
from .sensitivity import full_report
# dominant_eigenvalue is not called here; perfbench's tracer rebinds it
from .spectrum import (collocation_spectrum, dominant_eigenvalue,  # noqa: F401
                       imaginary_vanishing_k, limit_residual, limit_spectrum,
                       real_root_scan)


def _fmt(x) -> str:
    """Full double precision, stable across runs."""
    return format(float(x), ".17g")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell if isinstance(cell, str) else _fmt(cell)
                              for cell in row) + "\n")


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _profile_rows(samples):
    return [(_fmt(x), _fmt(c.real), _fmt(c.imag), _fmt(q.real),
             _fmt(q.imag), side)
            for x, c, q, side in zip(samples.x, samples.c, samples.q,
                                     samples.side)]


_PROFILE_HEADER = ["x", "c_re", "c_im", "q_re", "q_im", "side"]


def _solution_json(sol) -> dict:
    return {
        "lambda": _pair(sol.lam),
        "kind": sol.kind,
        "residual": float(sol.residual),
        "normalization": sol.normalization,
        "coeffs": [_pair(z) for z in sol.coeffs],
    }


def _sensitivity_json(rep) -> dict:
    fd = None if rep.fd_check is None else list(rep.fd_check)
    return {"dv": [z.real for z in rep.dv], "dR": rep.dR.real,
            "dP": rep.dP.real, "fd_rel_err": fd}


# ---------------------------------------------------------------------------
# subcommands: each writes its artifacts into out
# ---------------------------------------------------------------------------

def cmd_analyze(args, params: ModelParams, out: Path) -> None:
    summary: dict = {"version": __version__}
    rep = full_report(params, tol=args.tol)
    lam0, direct, adjoint = rep.lam.real, rep.direct, rep.adjoint
    summary["sensitivities"] = _sensitivity_json(rep)
    summary["lambda0"] = lam0
    phys = params.physical
    if phys is not None:
        summary["time_constant_min"] = (
            time_constant(lam0, phys, phys.L_column) if lam0 != 0 else None)
    summary["direct"] = _solution_json(direct)
    summary["adjoint"] = _solution_json(adjoint)
    _write_csv(out / "direct_profile.csv", _PROFILE_HEADER,
               _profile_rows(evaluate(direct, args.grid)))
    _write_csv(out / "adjoint_profile.csv", _PROFILE_HEADER,
               _profile_rows(evaluate(adjoint, args.grid)))
    _write_json(out / "analyze_summary.json", summary)


def cmd_spectrum(args, params: ModelParams, out: Path) -> None:
    found = real_root_scan(params, args.range, grid_n=args.grid, tol=args.tol)
    rows = []
    if found:
        z, _ = return_map([r for r, _, _ in found], params)._delta_parts
        rows = [(root, residual, blo, bhi)
                for (root, blo, bhi), residual in zip(found, np.abs(z))]
    _write_csv(out / "real_roots.csv",
               ["lambda", "residual", "bracket_lo", "bracket_hi"], rows)
    crows = []
    for N in (30, 45):
        for z in collocation_spectrum(params, N=N):
            crows.append((z.real, z.imag, N))
    _write_csv(out / "collocation.csv", ["re", "im", "N"], crows)


def cmd_limit(args, params: ModelParams, out: Path) -> None:
    table = limit_spectrum(params, k_max=args.grid)
    _write_csv(out / "limit_spectrum.csv",
               ["k", "re_plus", "im_plus", "re_minus", "im_minus"],
               [(e.k, e.lambda_plus.real, e.lambda_plus.imag,
                 e.lambda_minus.real, e.lambda_minus.imag) for e in table])
    k0 = next(e for e in table if e.k == 0)
    checked = [lam for e in table if abs(e.k) <= min(args.grid, 20)
               for lam in (e.lambda_plus, e.lambda_minus)]
    _write_json(out / "limit_summary.json", {
        "lambda0_plus": _pair(k0.lambda_plus),
        "lambda0_minus": _pair(k0.lambda_minus),
        "k_star": imaginary_vanishing_k(params),
        "max_residual": float(limit_residual(checked, params).max()),
    })


def cmd_sensitivity(args, params: ModelParams, out: Path) -> None:
    rep = full_report(params, tol=args.tol)
    _write_json(out / "sensitivity.json",
                {"lambda0": rep.lam.real, **_sensitivity_json(rep)})


def cmd_steady(args, params: ModelParams, out: Path) -> None:
    sol = steady_state(params)
    samples = evaluate(sol, args.grid)
    _write_csv(out / "steady_profile.csv", _PROFILE_HEADER,
               _profile_rows(samples))
    _write_json(out / "steady_summary.json", {
        "f0": params.f0,
        "c_min": float(samples.c.real.min()),
        "c_max": float(samples.c.real.max()),
        "q_min": float(samples.q.real.min()),
        "q_max": float(samples.q.real.max()),
        "residual": float(sol.residual),
    })


def cmd_simulate(args, params: ModelParams, out: Path) -> None:
    config = simmod.SimConfig(Nx=args.Nx, p=args.p, T=args.T,
                              record_every=args.record_every,
                              strang=args.strang)
    eigen_profile = None
    initial = args.initial
    if params.f0 == 0.0:
        eigen_profile = simmod.sample_eigenfunction(params, args.Nx)
        if initial == "eigenfunction":
            initial = eigen_profile
    state = simmod.init(config, params, initial)
    state, rows = simmod.run(state, config, params,
                             eigen_profile=eigen_profile)
    _write_csv(out / "diagnostics.csv",
               ["t", "energy", "mass", "sup_norm", "profile_rms"],
               [(r.t, r.energy, r.mass, r.sup_norm,
                 "" if r.profile_rms is None else _fmt(r.profile_rms))
                for r in rows])
    xs = simmod.cell_centers(args.Nx)
    snap = [(zone + 1, j + 1, xs[zone, j], state.c[zone, j + 1],
             state.q[zone, j + 1])
            for zone in range(4) for j in range(args.Nx)]
    _write_csv(out / "snapshot_final.csv", ["zone", "cell", "x", "c", "q"],
               snap)
    summary = {"T": args.T, "Nx": args.Nx, "dt": state.dt,
               "steps": round(state.t / state.dt), "rows": len(rows),
               "final_sup_norm": rows[-1].sup_norm,
               "final_energy": rows[-1].energy, "final_mass": rows[-1].mass}
    try:
        summary["decay_rate"] = simmod.decay_rate(
            rows, (args.T / 3.0, args.T))
    except InsufficientSamples:
        summary["decay_rate"] = None
    _write_json(out / "simulate_summary.json", summary)


def cmd_delta_scan(args, params: ModelParams, out: Path) -> None:
    lams = np.linspace(*args.range, check_count("grid", args.grid, 1))
    ev = return_map(lams, params)
    rows = []
    for lam, sign, log_abs, trace_log, det_log in zip(
            lams, ev.delta_sign.tolist(), ev.log_abs_delta.tolist(),
            ev.trace_log, ev.det_log.real):
        try:
            d = sign * math.exp(log_abs)
        except OverflowError:           # |Delta| beyond the double range
            d = math.inf * sign
        atan_delta = (2.0 / math.pi) * math.atan(d)
        rows.append((lam, d, atan_delta, sign, log_abs, trace_log, det_log))
    _write_csv(out / "delta_scan.csv",
               ["lambda", "delta", "atan_delta", "sign", "log_abs_delta",
                "trace_log", "det_log"], rows)


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _range_arg(text: str) -> tuple:
    try:
        lo, hi = map(float, text.split(":"))
        if math.isfinite(lo) and math.isfinite(hi) and lo <= hi:
            return lo, hi
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected finite lo:hi with lo <= hi, got {reprlib.repr(text)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="movingbed",
        description="Spectral analysis and simulation of a four-zone "
                    "countercurrent adsorption loop.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--params", help="JSON parameter file")
    common.add_argument("--preset", choices=sorted(PRESETS),
                        default="case-study",
                        help="built-in parameter set (default: case-study)")
    common.add_argument("--out", default="tmb_out",
                        help="output directory (default: tmb_out)")
    common.add_argument("--f0", type=float, default=None,
                        help="override the feed strength")
    # only the subcommands that locate roots read a tolerance
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=1e-10,
                     help="root-finding tolerance (default: 1e-10); below "
                     "the spacing of doubles near the root (1e-20, say) "
                     "a lambda0 solve takes 6-10 Delta calls instead of "
                     "3-4, for the same root")

    p = sub.add_parser("analyze", parents=[common, tol],
                       help="eigenvalue, eigenfunctions, sensitivities")
    p.add_argument("--grid", type=int, default=101,
                   help="profile samples per zone")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("spectrum", parents=[common, tol],
                       help="real-axis root scan + collocation spectrum")
    p.add_argument("--range", type=_range_arg, default=(-30.0, 0.0),
                   help="real-axis scan interval lo:hi (default -30:0)")
    p.add_argument("--grid", type=int, default=400,
                   help="scan grid density")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("limit", parents=[common],
                       help="closed-form equal-velocity spectrum")
    p.add_argument("--grid", type=int, default=80, help="max branch index k")
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("sensitivity", parents=[common, tol],
                       help="adjoint-method parameter derivatives")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("steady", parents=[common],
                       help="forced steady-state profile")
    p.add_argument("--grid", type=int, default=101,
                   help="profile samples per zone")
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("simulate", parents=[common],
                       help="operator-splitting time integration")
    p.add_argument("--Nx", type=int, default=400, help="cells per zone")
    p.add_argument("--p", type=float, default=None,
                   help="Courant parameter (default 0.9/max(v,1))")
    p.add_argument("--T", type=float, default=60.0, help="final time")
    p.add_argument("--record-every", type=int, default=50,
                   help="steps between diagnostics rows")
    p.add_argument("--initial", default="constant",
                   choices=["constant", "zero", "eigenfunction"],
                   help="initial condition preset")
    p.add_argument("--strang", action="store_true",
                   help="symmetrized splitting")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("delta-scan", parents=[common],
                       help="characteristic function along the real axis")
    p.add_argument("--range", type=_range_arg, default=(-30.0, 10.0),
                   help="lambda interval lo:hi (default -30:10)")
    p.add_argument("--grid", type=int, default=601, help="number of points")
    p.set_defaults(func=cmd_delta_scan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = (PRESETS[args.preset]() if args.params is None
                  else load_params(args.params))
        if args.f0 is not None:
            params = replace(params, f0=args.f0)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        args.func(args, params, out)
        _write_json(out / "manifest.json", {
            "command": args.command,
            "version": __version__,
            "params": params_to_dict(params),
            "params_path": args.params,
            "output_dir": str(out),
            "deterministic": True,
            "flags": {k: v for k, v in sorted(vars(args).items())
                      if k != "func" and v is not None},
        })
        return 0
    except json.JSONDecodeError as exc:
        print(f"error: malformed parameter file: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
