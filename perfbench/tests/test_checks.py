"""Each independent check accepts the program's output and rejects a corrupted copy.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import json

import numpy as np
import pytest

import checks
import workloads
from pvi import cli


def _run(call, path):
    assert cli.main([*call.argv, "--out", str(path)]) == 0
    return path.read_text(encoding="utf-8")


def _first(kind, ops):
    return next(c for op in ops for c in op if c.kind == kind)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("out")
    rng = np.random.default_rng(5)
    rh = workloads.rh_round(rng)[0][0]
    flow = workloads.flow_round(rng)[0][0]
    calls = workloads.geometry_pass(rng)[0]
    a2 = next(c for c in calls if c.kind == "classify" and c.spec["label"] == "A2")
    d4 = next(c for c in calls if c.spec.get("point"))
    picked = {"rh": rh, "flow": flow, "a2": a2, "d4": d4,
              "orbit": _first("orbit", [calls]), "backlund": _first("backlund", [calls])}
    return {name: (call, _run(call, tmp / name)) for name, call in picked.items()}


def _check(outputs, name, text=None):
    call, genuine = outputs[name]
    text = genuine if text is None else text
    oracle = checks.ORACLES.get(call.kind, lambda spec, text: [])
    return checks.CHECKS[call.kind](call.spec, text) + oracle(call.spec, text)


def _csv_rows(text):
    lines = text.splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _csv_text(header, rows):
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


@pytest.mark.parametrize("name", ["rh", "flow", "a2", "d4", "orbit", "backlund"])
def test_genuine_output_passes(outputs, name):
    assert _check(outputs, name) == []


def test_rh_rejects_perturbed_x(outputs):
    out = json.loads(outputs["rh"][1])
    out["x"][0][0] += 1e-4
    problems = _check(outputs, "rh", json.dumps(out))
    assert any("scipy transport" in p for p in problems)


def test_rh_transport_oracle_alone_rejects_perturbed_x(outputs):
    call, text = outputs["rh"]
    x = np.array([complex(*v) for v in json.loads(text)["x"]])
    ref = checks.transport_x(call.spec["q"], call.spec["p"], call.spec["t"], call.spec["kappa"])
    assert np.max(np.abs(x - ref)) < 1e-8
    assert np.max(np.abs(x + 1e-6 - ref)) > 1e-7


def test_rh_rejects_wrong_trace_and_defects(outputs):
    out = json.loads(outputs["rh"][1])
    out["traces"][3][0] *= -1
    out["product_defect"] = 1e-3
    out["apparency"] = 1e-3
    problems = _check(outputs, "rh", json.dumps(out))
    assert any("traces" in p for p in problems)
    assert any("product_defect" in p for p in problems)
    assert any("apparency" in p for p in problems)


def test_flow_rejects_perturbed_end(outputs):
    header, rows = _csv_rows(outputs["flow"][1])
    rows[-1][3] = repr(float(rows[-1][3]) + 1e-5)
    problems = _check(outputs, "flow", _csv_text(header, rows))
    assert any("scalar equation" in p for p in problems)


def test_flow_rejects_spliced_trajectory(outputs, tmp_path):
    """Second half restarted from a perturbed p, as a spliced run would be."""
    call, text = outputs["flow"]
    header, rows = _csv_rows(text)
    payload = json.loads(call.argv[2])
    cut = len(payload["path"]) // 2
    vertex = complex(*payload["path"][cut][2])
    mid = next(r for r in rows if abs(complex(float(r[1]), float(r[2])) - vertex) < 1e-12)
    t_mid = [0, 1, [float(mid[1]), float(mid[2])]]
    payload["point"].update(q=[float(mid[3]), float(mid[4])], p=[float(mid[5]) + 1e-3, float(mid[6])], t=t_mid)
    payload["path"] = [t_mid] + payload["path"][cut + 1:]
    cli.main(["flow", "--input", json.dumps(payload), "--out", str(tmp_path / "rest")])
    _, rest = _csv_rows((tmp_path / "rest").read_text())
    spliced = rows[: rows.index(mid) + 1] + rest[1:]
    problems = _check(outputs, "flow", _csv_text(header, spliced))
    assert any("scalar equation" in p for p in problems)


def test_flow_rejects_shifted_columns(outputs):
    header, rows = _csv_rows(outputs["flow"][1])
    shifted = [r[:3] + prev[3:7] + r[7:] for prev, r in zip(rows, rows[1:])]
    problems = _check(outputs, "flow", _csv_text(header, rows[:1] + shifted))
    assert any("H1 column" in p for p in problems)


def test_flow_rejects_large_residual(outputs):
    header, rows = _csv_rows(outputs["flow"][1])
    rows[5][13] = "2e-06"
    assert any("residual" in p for p in _check(outputs, "flow", _csv_text(header, rows)))


def test_classify_rejects_wrong_label(outputs):
    out = json.loads(outputs["a2"][1])
    out["stratum"] = "A3"
    assert any("stratum" in p for p in _check(outputs, "a2", json.dumps(out)))


def test_classify_rejects_point_off_the_singular_locus(outputs):
    out = json.loads(outputs["a2"][1])
    out["singular_points"][0]["x"][0][0] += 1e-3
    assert any("not a singular point" in p for p in _check(outputs, "a2", json.dumps(out)))


def test_classify_rejects_moved_d4_point(outputs):
    out = json.loads(outputs["d4"][1])
    for v in out["singular_points"][0]["x"]:
        v[0] = -v[0]
    problems = _check(outputs, "d4", json.dumps(out))
    assert any("exactly one point" in p for p in problems)


def test_orbit_rejects_perturbed_row(outputs):
    header, rows = _csv_rows(outputs["orbit"][1])
    rows[7][1] = repr(float(rows[7][1]) + 1e-6)
    problems = _check(outputs, "orbit", _csv_text(header, rows))
    assert any("not the word applied" in p for p in problems)


def test_orbit_rejects_rows_out_of_order(outputs):
    header, rows = _csv_rows(outputs["orbit"][1])
    rows[3][1:], rows[4][1:] = rows[4][1:], rows[3][1:]
    assert _check(outputs, "orbit", _csv_text(header, rows))


def test_backlund_rejects_non_identity(outputs):
    out = json.loads(outputs["backlund"][1])
    out["end"]["q"][1] += 1e-6
    out["theta_drift"] = 1e-6
    problems = _check(outputs, "backlund", json.dumps(out))
    assert any("identity" in p for p in problems)
    assert any("theta" in p for p in problems)
