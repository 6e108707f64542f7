"""The benchmark's own tests.

    python -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import stats
import worker
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
COUNTS = re.compile(r".*\.calls$|.*\.failed$|^sim\.steps$|"
                    r"^sensitivity\.fd_resolves$|"
                    r"^spectrum\.delta_evals_per_solve$|^cli\.bytes_written$|"
                    r"^eigfun\.wide_box_failed$")

INPUTS = {"sweep": workloads.sweep_inputs,
          "simulate": workloads.simulate_inputs,
          "cli": workloads.cli_inputs}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_inputs_depend_on_seed_only(name):
    make = INPUTS[name]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_draws_are_valid_parameter_sets():
    for d in workloads.sweep_inputs(1)[:200] + workloads.wide_inputs(1):
        assert workloads.to_params(d).strict_ports
    for op in workloads.simulate_inputs(1)[:30]:
        p = workloads.to_params(op["params"])
        assert p.limit_case == (op["initial"] == "wave")


def test_metric_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25


def test_layer_metrics_match_the_spec():
    produced = worker.layer_metrics(Tracer())
    produced["cli.import_s"] = (0.0, "s")
    produced["trace.overhead_frac"] = (0.0, "fraction")
    assert {k: u for k, (_, u) in produced.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_tail_reports_percentile_and_sample_count():
    t = stats.tail([float(i) for i in range(1, 101)])
    assert t == {"pct": 90, "value": 90.0, "n": 100, "beyond": 10}
    t = stats.tail([float(i) for i in range(1, 41)])
    assert (t["pct"], t["n"], t["beyond"]) == (75, 40, 10)
    short = stats.tail([3.0, 1.0, 2.0, 4.0])
    assert (short["pct"], short["value"], short["n"]) == (50, 2.5, 4)
    assert short["beyond"] < stats.MIN_BEYOND


def test_wrappers_cover_every_binding_and_come_off():
    from movingbed import charfun, cli, eigfun, sensitivity, sim, spectrum
    bindings = [(charfun, "return_map"), (spectrum, "return_map"),
                (cli, "return_map"), (spectrum, "dominant_eigenvalue"),
                (sensitivity, "dominant_eigenvalue"),
                (sim, "dominant_eigenvalue"), (cli, "dominant_eigenvalue"),
                (charfun, "zone_eigen"), (eigfun, "zone_eigen"),
                (eigfun, "inner_product"), (sensitivity, "inner_product")]
    originals = [getattr(m, a) for m, a in bindings]
    tracer = Tracer()
    with tracer.installed():
        for (mod, attr), orig in zip(bindings, originals):
            assert getattr(mod, attr) is not orig
            assert getattr(mod, attr).__wrapped__ is orig
    for (mod, attr), orig in zip(bindings, originals):
        assert getattr(mod, attr) is orig


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))

    def outer():
        inner()
        inner()
    tracer.wrap("outer", outer)()
    totals = tracer.layer_totals()
    assert totals["inner"]["calls"] == 2
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["total_s"] - totals["inner"]["total_s"], abs=1e-12)
    assert tracer.count_under("inner", "outer", direct=True) == 2


@pytest.mark.parametrize("name,ops,busy", [
    ("sweep", 2, "charfun.return_map.calls"),
    ("simulate", 3, "sim.steps"),
    ("cli", 7, "cli.bytes_written")])
def test_traced_counts_repeat_exactly(name, ops, busy, tmp_path,
                                      monkeypatch):
    monkeypatch.setitem(workloads.TRACE_OPS, name, ops)
    counts = []
    for run in range(2):
        workdir = tmp_path / str(run)
        workdir.mkdir()
        wl = workloads.WORKLOADS[name](3, workdir)
        res = worker.trace(wl)
        assert not res["tally"].wrong
        counts.append({k: v for k, (v, _) in res["metrics"].items()
                       if COUNTS.match(k)})
    assert counts[0] == counts[1]
    assert counts[0][busy] > 0


def test_fd_recheck_settles_second_order_misses():
    # |d lambda0 / dP| ~ 9e-4 here, so the h = 1e-4 difference in
    # full_report misses FD_TOL; the fourth-order reference does not
    d = workloads.sweep_inputs(7)[2]
    sweep = workloads.Sweep(7, None)
    out = sweep.run(workloads.to_params(d))
    assert out[2].fd_check[5] > workloads.FD_TOL
    assert sweep.check(d, out) == 0


def test_wide_probe_sees_the_known_failures():
    # the timed ops avoid the part of the wide box where the adjoint solve
    # raises DegenerateNullspace; the probe must still find it there
    assert workloads.Sweep(1, None).wide_failures() > 0


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_smoke_run(name):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1
    assert {k: m["unit"] for k, m in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
