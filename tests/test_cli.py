"""End-to-end tests of the command line interface."""

import argparse
import csv
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pvi import cli, cubic, fuchsian, modular, params


RH_INPUT = (
    '{"q": [0.4,0.3], "p": [0.2,-0.5], "t": [0,1,2], '
    '"kappa_free": [0.21,0.33,0.17,0.11]}'
)
# RHS evaluations of `pvi rh` on RH_INPUT, as measured when the count-based
# bound below was last set: three loops of 25 legs (tail once, 24 chords).
RH_RHS_EVALS = 13077
MONODROMY_INPUT = (
    '{"point": {"q": [0.4,0.3], "p": [0.2,-0.5], "t": [0,1,2], '
    '"kappa_free": [0.21,0.33,0.17,0.11]}, "braid": "1 1"}'
)
ORBIT_INPUT = (
    '{"point": {"x": [[0.1,0.2],[0.3,-0.1],[0.2,0.05]], '
    '"theta": [[0.5,0],[0.25,0],[0.75,0],[0.1,0]]}, '
    '"word": "1 1 -2 -2", "n": 6}'
)
# kappa = (k0, ..., k4) of one representative per stratum.
STRATA = (
    ((5 / 32, 1 / 4, 1 / 4, 1 / 8, 1 / 16), "smooth"),
    ((0, 7 / 20, 1 / 10, 3 / 20, 2 / 5), "A1"),
    ((5 / 32, 0, 1 / 4, 1 / 8, 5 / 16), "A1"),
    ((5 / 16, 0, 0, 1 / 8, 1 / 4), "2A1"),
    ((7 / 16, 0, 0, 0, 1 / 8), "3A1"),
    ((1 / 2, 0, 0, 0, 0), "4A1"),
    ((0, 0, 1 / 4, 1 / 4, 1 / 2), "A2"),
    ((0, 0, 0, 1 / 2, 1 / 2), "A3"),
    ((0, 0, 0, 0, 1), "D4"),
)


def test_classify_most_singular_kappa(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = cli.main(["classify", "--input", '{"kappa": [0,0,0,0,1]}', "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["stratum"] == "D4"
    assert payload["on_wall"] is True
    assert payload["index_set_size"] == 4


def test_classify_generic_kappa(capsys):
    code = cli.main(
        ["classify", "--input", '{"kappa_free": [0.25, 0.25, 0.125, 0.0625]}']
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stratum"] == "smooth"
    assert payload["on_wall"] is False


def test_classify_theta_directly(capsys):
    code = cli.main(["classify", "--input", '{"theta": [8,8,8,28]}'])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stratum"] == "D4"


def test_classify_input_file(tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text('{"kappa": [0,0,0,0,1]}')
    assert cli.main(["classify", "--input", str(src)]) == 0
    assert json.loads(capsys.readouterr().out)["stratum"] == "D4"


def test_rh_reports_surface_point(tmp_path):
    out = tmp_path / "rh.json"
    code = cli.main(["rh", "--input", RH_INPUT, "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["fricke_residual"] < 1e-6
    assert payload["product_defect"] < 1e-6
    assert payload["apparency"] < 1e-6
    assert len(payload["x"]) == 3


def test_orbit_writes_csv_and_checks_invariance(tmp_path):
    out = tmp_path / "orbit.csv"
    spec = (
        '{"point": {"x": [[0.1,0.2],[0.3,-0.1],[0.2,0.05]], '
        '"theta": [[0.5,0],[0.25,0],[0.75,0],[0.1,0]]}, '
        '"word": "1 1 -2 -2", "n": 6}'
    )
    code = cli.main(["orbit", "--input", spec, "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 7
    assert [int(r["step"]) for r in rows] == list(range(7))
    # the Fricke value is transported exactly, so the drift stays tiny
    drift = max(abs(float(r["f_residual"]) - float(rows[0]["f_residual"])) for r in rows)
    assert drift < 1e-10


@pytest.mark.filterwarnings("error")
def test_orbit_of_no_steps_at_a_huge_x_checks_without_overflow(capsys):
    """|x| = 1e120 cubed is past the float range: the drift bound is inf, not an OverflowError."""
    spec = '{"point": {"x": [1e120, 2, 3], "theta": [0, 0, 0, 0]}, "word": "1 1", "n": 0}'
    assert cli.main(["orbit", "--input", spec]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1] == "0,1e+120,0.0,2.0,0.0,3.0,0.0,1e+240"
    assert err == ""


def test_orbit_rejects_non_level_two_word(capsys):
    spec = (
        '{"point": {"x": [[0.1,0],[0.3,0],[0.2,0]], '
        '"theta": [[0.5,0],[0.25,0],[0.75,0],[0.1,0]]}, "word": "1 -2", "n": 3}'
    )
    assert cli.main(["orbit", "--input", spec]) == 1
    assert "level-two" in capsys.readouterr().err


def test_flow_riccati_chart_stays_on_locus(tmp_path):
    out = tmp_path / "traj.csv"
    spec = (
        '{"point": {"q": [0.4,0.3], "p": [0,0], "t": [0,1,2], '
        '"kappa_free": [0.23,0.31,0.17,0.29]}, '
        '"path": [[0,1,2],[0,1,[2.5,0.3]]]}'
    )
    code = cli.main(["flow", "--input", spec, "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert rows
    max_p = max(abs(float(r["re_p"])) + abs(float(r["im_p"])) for r in rows)
    max_res = max(float(r["pvi_residual"]) for r in rows)
    assert max_p <= 1e-8
    assert max_res <= 1e-6


def test_monodromy_forward_orientation_passes(tmp_path):
    out = tmp_path / "mono.json"
    code = cli.main(["monodromy", "--input", MONODROMY_INPUT, "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["orientation"] == "fwd"
    assert payload["deviation"] < 1e-4


def test_backlund_word_preserves_rh_parameters(capsys):
    spec = (
        '{"point": {"q": [0.4,0.3], "p": [0.2,-0.5], "t": [0,1,2], '
        '"kappa_free": [0.21,0.33,0.17,0.11]}, "word": "0102"}'
    )
    code = cli.main(["backlund", "--input", spec])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theta_drift"] < 1e-10


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    assert all(line.startswith("pass") for line in lines)


def test_module_entry_point_runs_without_a_runpy_warning():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pvi.cli", "selftest"], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_output_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["classify", "--input", '{"kappa": [0,0,0,0,1]}', "--out", str(a)])
    cli.main(["classify", "--input", '{"kappa": [0,0,0,0,1]}', "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_invalid_configuration_exits_nonzero(capsys):
    bad = (
        '{"q": [0,0], "p": [0,0], "t": [0,0,1], "kappa_free": [0.1,0.1,0.1,0.1]}'
    )
    assert cli.main(["rh", "--input", bad]) == 1
    assert capsys.readouterr().err.strip()


def test_missing_input_file_exits_nonzero(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.main(["classify", "--input", str(missing)]) == 1
    assert capsys.readouterr().err.strip()


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_rh_computes_the_monodromy_once(tmp_path, monkeypatch):
    counts = {}
    for name in ("monodromy", "apparent_check"):
        _count_calls(monkeypatch, fuchsian, name, counts)
    assert cli.main(["rh", "--input", RH_INPUT, "--out", str(tmp_path / "rh.json")]) == 0
    assert counts == {"monodromy": 1, "apparent_check": 1}


def test_main_logs_the_subcommand_and_its_exit_code(caplog, capsys):
    caplog.set_level(logging.INFO, logger="pvi")
    assert cli.main(["classify", "--input", "{}"]) == 1
    assert cli.main(["classify", "--input", '{"kappa": [0,0,0,0,1]}']) == 0
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("pvi.cli", logging.INFO, "pvi classify: exit 1"),
        ("pvi.cli", logging.INFO, "pvi classify: exit 0"),
    ]


def test_flow_debug_line_leaves_the_output_alone(monkeypatch, capsys, caplog):
    """With PVI_LOG unset nothing reaches stderr; the DEBUG line of
    flow.integrate goes to the log, never into the CSV."""
    spec = (
        '{"point": {"q": [-0.6804,0.5986], "p": [-0.0403,0.191], "t": [0,1,2], '
        '"kappa_free": [0.6498,0.3158,-0.2571,-0.773]}, "path": [[0,1,2],[0,1,1.8]]}'
    )
    monkeypatch.delenv("PVI_LOG", raising=False)
    assert cli.main(["flow", "--input", spec]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    caplog.set_level(logging.DEBUG, logger="pvi")
    assert cli.main(["flow", "--input", spec]) == 0
    assert capsys.readouterr() == plain
    assert [r.getMessage().split(":")[0] for r in caplog.records if r.name == "pvi.flow"] == [
        "flow.integrate"
    ]


def test_rh_right_hand_side_evaluations_stay_bounded(tmp_path, monkeypatch):
    """A count-based cost gate: it does not depend on the speed of the host."""
    evals = [0]
    original = fuchsian.adaptive_rk

    def counting_rk(f, *args, **kwargs):
        def counted_f(s, y):
            evals[0] += 1
            return f(s, y)

        return original(counted_f, *args, **kwargs)

    monkeypatch.setattr(fuchsian, "adaptive_rk", counting_rk)
    assert cli.main(["rh", "--input", RH_INPUT, "--out", str(tmp_path / "rh.json")]) == 0
    assert 0 < evals[0] <= 1.25 * RH_RHS_EVALS


@pytest.mark.parametrize(
    "command, spec",
    [
        ("classify", "[1,2]"),
        ("rh", RH_INPUT.replace('"t": [0,1,2]', '"t": 5')),
        ("rh", RH_INPUT.replace("0.21,", "NaN,")),
        ("rh", RH_INPUT.replace('"q": [0.4,0.3]', '"q": [0.4,Infinity]')),
        ("rh", RH_INPUT.replace('"p": [0.2,-0.5]', '"p": [NaN,-0.5]')),
        ("rh", RH_INPUT.replace('"t": [0,1,2]', '"t": [0,1,-Infinity]')),
        ("classify", '{"kappa": [0,0,0,NaN,1]}'),
        ("classify", "{}"),
        ("flow", '{"point": [1], "path": []}'),
        ("flow", MONODROMY_INPUT.replace('"braid": "1 1"', '"path": 5')),
        ("monodromy", MONODROMY_INPUT.replace('"braid": "1 1"', '"braid": 5')),
        ("monodromy", '{"point": "x", "braid": "1 1"}'),
        ("backlund", MONODROMY_INPUT.replace('"braid": "1 1"', '"word": 5')),
        ("backlund", MONODROMY_INPUT.replace('"braid": "1 1"', '"word": [[1]]')),
        ("orbit", '{"point": [1], "word": "1 1", "n": 1}'),
        ("orbit", ORBIT_INPUT.replace('"word": "1 1 -2 -2"', '"word": 5')),
        ("orbit", ORBIT_INPUT.replace('"n": 6', '"n": [1]')),
        # a fixed point: without the bound this would run and write every step
        ("orbit", '{"point": {"x": [2, 2, 2], "theta": [8, 8, 8, 28]}, "word": "1 1", '
                  f'"n": {modular.MAX_ORBIT_STEPS + 1}}}'),
        # f at x1 = 1e200 overflows to inf on the way to the escape
        ("orbit", '{"point": {"x": [1e200, 2, 3], "theta": [0, 0, 0, 0]}, "word": "1 1", "n": 3}'),
        ("rh", RH_INPUT.replace('"p": [0.2,-0.5]', '"p": 1e160')),
        ("rh", RH_INPUT.replace('"q": [0.4,0.3]', '"q": 1e200')),
        ("rh", RH_INPUT.replace('"t": [0,1,2]', '"t": [0,1,1e300]')),
        ("flow", MONODROMY_INPUT.replace('"p": [0.2,-0.5]', '"p": 1e300').replace(
            '"braid": "1 1"', '"path": [[0,1,2],[0,1,2.3]]')),
        ("monodromy", MONODROMY_INPUT.replace('"p": [0.2,-0.5]', '"p": 1e300')),
        ("backlund", MONODROMY_INPUT.replace("[0.21,", "[[0.1,300],").replace(
            '"braid": "1 1"', '"word": "1"')),
        ("classify", '{"kappa_free": [[0.1,1e300],0,0,0]}'),
        ("flow", MONODROMY_INPUT.replace('"t": [0,1,2]', '"t": [0,1,1e300]').replace(
            '"braid": "1 1"', '"path": [[0,1,1e300],[0,1,2e300]]')),
        ("flow", MONODROMY_INPUT.replace('"braid": "1 1"', '"path": [[0,1,2],[0,1,1e100]]')),
        ("flow", MONODROMY_INPUT.replace('"t": [0,1,2]', '"t": [0,1,1e100]').replace(
            '"p": [0.2,-0.5]', '"p": [0.1,0]').replace(
            '"braid": "1 1"', '"path": [[0,1,1e100],[0,1,[2e100,1e100]]]')),
        # every (t_i - t_j)(t_i - t_k) underflows to 0, so the field is nan
        ("flow", MONODROMY_INPUT.replace('"t": [0,1,2]', '"t": [0,1e-170,2e-170]').replace(
            '"braid": "1 1"', '"path": [[0,1e-170,2e-170],[0,1e-170,3e-170]]')),
    ],
    ids=[
        "inline-array", "scalar-t", "nan-kappa-free", "inf-q", "nan-p", "inf-t", "nan-kappa",
        "classify-no-key", "flow-list-point", "flow-scalar-path", "monodromy-scalar-braid",
        "monodromy-string-point", "backlund-scalar-word", "backlund-nested-word",
        "orbit-list-point", "orbit-scalar-word", "orbit-list-n", "orbit-n-above-bound", "orbit-x1-1e200",
        "rh-p-1e160", "rh-q-1e200", "rh-t3-1e300", "flow-p-1e300", "monodromy-p-1e300",
        "backlund-kappa-imag-300", "classify-kappa-imag-1e300",
        "flow-t3-1e300", "flow-t3-to-1e100", "flow-t3-1e100-residual",
        "flow-t-underflowed-divisor",
    ],
)
@pytest.mark.filterwarnings("error")
def test_malformed_input_is_one_error_line(command, spec, capsys):
    assert cli.main([command, "--input", spec]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def test_emit_writes_nothing_for_a_non_finite_number(tmp_path):
    """NaN and Infinity are not JSON (RFC 8259): the payload is refused whole."""
    path = tmp_path / "out.json"
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cli._emit(argparse.Namespace(out=str(path)), {"a": 1.0, "b": [bad]})
        assert not path.exists()


def test_non_finite_output_is_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(cubic, "discriminant_lift", lambda a: complex("nan"))
    assert cli.main(["classify", "--input", '{"kappa": [0.15625, 0.25, 0.25, 0.125, 0.0625]}']) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["classify", "rh", "orbit", "flow", "monodromy", "backlund"])
def test_missing_input_option_is_one_error_line(command, capsys):
    assert cli.main([command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "--input", "{}"],
        ["selftest", "--tol", "1"],
        ["rh", "--seed", "1", "--input", RH_INPUT],
        ["classify", "--max-steps", "3", "--input", "{}"],
        ["classify", "--tol", "1e-6", "--input", "{}"],
        ["flow", "--orientation", "inv", "--input", "{}"],
        ["orbit", "--max-steps", "3", "--input", "{}"],
        ["monodromy", "--orientation", "inv", "--input", "{}"],
    ],
)
def test_subcommand_rejects_an_option_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "spec",
    [
        '{"theta": [1e104, 1e104, 1e104, 1e104]}',
        '{"kappa_free": [[0.1, 80], 0.2, 0.3, 0.1]}',
        '{"theta": [1e200, 1e200, 1e200, 1e200]}',
        '{"theta": [1e100, 0, 0, 0]}',
    ],
    ids=["theta-1e104", "kappa-imag-80", "theta-1e200", "theta1-1e100"],
)
def test_classify_refuses_a_theta_out_of_range(spec, capsys):
    """Too large a theta is one error line naming it, with no warning on the way."""
    assert cli.main(["classify", "--input", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: theta (")
    assert "out of range" in err and "Warning" not in err
    assert len(err.strip().splitlines()) == 1


def _classify(spec, capsys):
    assert cli.main(["classify", "--input", json.dumps(spec)]) == 0
    return json.loads(capsys.readouterr().out)


def test_classify_off_every_wall_is_smooth_and_off_the_wall(capsys):
    # every D4 root value of this kappa is at least 0.05 from an integer, and
    # its scaled discriminant lift reads 1.1e-4
    kappa_free = [-0.8824417998909664, 0.773860317905306, 0.10510376233591223, -0.886912248587404]
    payload = _classify({"kappa_free": kappa_free}, capsys)
    assert payload["stratum"] == "smooth"
    assert payload["singular_points"] == []
    assert payload["on_wall"] is False


@pytest.mark.parametrize("kappa, label", STRATA, ids=[f"{i}-{lab}" for i, (_, lab) in enumerate(STRATA)])
def test_classify_kappa_and_theta_agree(kappa, label, capsys):
    theta = params.rh_param(params.Exponents(*kappa))
    by_kappa = _classify({"kappa": list(kappa)}, capsys)
    by_theta = _classify({"theta": [[z.real, z.imag] for z in theta]}, capsys)
    assert by_kappa["stratum"] == label
    for key in ("stratum", "index_set_size", "on_wall"):
        assert by_theta[key] == by_kappa[key]
    assert by_kappa["on_wall"] is (label != "smooth")
    # kappa is answered in closed form, theta by Newton: the points agree
    # within 1e-12 relative, not byte for byte
    assert len(by_theta["singular_points"]) == len(by_kappa["singular_points"])
    for got, want in zip(by_theta["singular_points"], by_kappa["singular_points"]):
        assert {**got, "x": None} == {**want, "x": None}
        x, y = (np.array([complex(*z) for z in p["x"]]) for p in (got, want))
        assert np.max(np.abs(x - y)) <= 1e-12 * max(1.0, np.max(np.abs(y)))


def test_classify_theta_rejects_a_configuration_of_no_stratum(monkeypatch, capsys):
    """An A1 and an A2 point together match no subdiagram of D4(1)."""
    theta = np.array([8.0, 8.0, 8.0, 28.0], dtype=complex)
    report = cubic.SingularPointReport(theta, (
        cubic.SingularPoint(np.zeros(3, dtype=complex), "A1", 1, 0),
        cubic.SingularPoint(np.ones(3, dtype=complex), "A2", 2, 1),
    ))
    monkeypatch.setattr(cubic, "singular_points", lambda theta: report)
    assert cli.main(["classify", "--input", '{"theta": [8,8,8,28]}']) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "does not match any stratum" in err
