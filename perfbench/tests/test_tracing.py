"""The tracer counts at the layer boundaries, and run.py keeps its output contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import pvi
import workloads
from pvi import cli, fuchsian, rk
from run import MODULES
from tracing import Tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_install_patches_aliases_and_uninstall_restores():
    original = rk.adaptive_rk
    tracer = Tracer(pvi, MODULES)
    tracer.install()
    try:
        assert fuchsian.adaptive_rk is rk.adaptive_rk is not original
        assert cli.main.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert fuchsian.adaptive_rk is rk.adaptive_rk is original


def test_accepted_steps_match_trajectory_rows(tmp_path):
    call = workloads.flow_round(np.random.default_rng(0))[0][0]
    tracer = Tracer(pvi, MODULES)
    tracer.install()
    try:
        assert cli.main([*call.argv, "--out", str(tmp_path / "t.csv")]) == 0
    finally:
        tracer.uninstall()
    rows = (tmp_path / "t.csv").read_text().count("\n") - 1
    calls, total, self_s, counters = tracer.take()
    assert counters["rk.accepted"] == rows - 1
    assert counters["flow.samples"] == rows
    assert calls["rk.adaptive_rk"] == len(workloads.FLOW_XS) - 1
    assert counters["rk.rhs_evals"] == calls["rk.rhs"]
    assert counters["rk.rhs_evals"] == calls["rk.adaptive_rk"] + 6 * (rows - 1 + counters["rk.rejected"])
    assert 0 < self_s["cli.main"] < total["cli.main"]
    assert abs(total["flow.integrate"] - self_s["flow.integrate"] - total["rk.adaptive_rk"]) < 1e-3


def test_transport_through_the_fuchsian_alias_is_counted():
    kappa = workloads._kappa([0.21, 0.33, 0.17, 0.11])
    pt = fuchsian.PhasePoint.make(0.4 + 0.3j, 0.2 - 0.5j, (0, 1, 2), kappa)
    tracer = Tracer(pvi, MODULES)
    tracer.install()
    try:
        fuchsian.transport(fuchsian.build_equation(pt), [2j, 1 + 2j, 2 + 2j])
    finally:
        tracer.uninstall()
    calls, _, self_s, _ = tracer.take()
    assert calls["rk.adaptive_rk"] == 2
    assert calls["fuchsian.transport"] == 1
    assert calls["fuchsian.hamiltonian"] == 3
    assert min(self_s.values()) >= 0


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_run_prints_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench(ROOT, "--workload", "geometry", "--seed", "3", "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "rh", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_unreadable_output_is_a_problem_not_a_crash(tmp_path):
    from run import Runner
    from checks import TRAJECTORY_COLUMNS

    path = tmp_path / "0.0"
    path.write_text(",".join(TRAJECTORY_COLUMNS) + "\n" + ",".join(["x"] * 14) + "\n")
    runner = Runner(cli, tmp_path, None)
    runner.kept.append((0, 0, path, None))
    runner.check_all(workloads.operations("flow", 0))
    assert len(runner.problems) == 2
    assert all("cannot be checked" in p for p in runner.problems)


def test_operation_time_is_rescaled_by_the_probes_around_it(tmp_path, monkeypatch):
    import run

    probes = iter([0.010, 0.030])
    monkeypatch.setattr(run, "probe", lambda: next(probes))
    runner = run.Runner(cli, tmp_path, None)
    runner.warm_up(())
    runner.run_one(())
    assert runner.probes == [0.010, 0.030]
    assert runner.op_times[0] == runner.raw_times[0] * 2 * run.PROBE_REF_S / (0.010 + 0.030)


def test_runner_checks_accepted_steps_against_the_csv_rows(tmp_path):
    from run import Runner

    runner = Runner(cli, tmp_path, Tracer(pvi, MODULES))
    ops = workloads.operations("flow", 0)
    runner.warm_up(next(ops))
    runner.run_one(next(ops))
    traced = [i for i, (*_, accepted) in enumerate(runner.kept) if accepted is not None]
    assert len(traced) == 1
    runner.check_all(workloads.operations("flow", 0))
    assert runner.problems == []
    n, j, path, accepted = runner.kept[traced[0]]
    runner.kept[traced[0]] = (n, j, path, accepted + 1)
    runner.check_all(workloads.operations("flow", 0))
    assert len(runner.problems) == 1 and "rk.accepted" in runner.problems[0]
