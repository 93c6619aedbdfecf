"""Command-line front door for the library.

Subcommands: classify | rh | orbit | flow | monodromy | backlund |
selftest.  Inputs come from a JSON file, an inline JSON string, or stdin;
outputs are JSON or CSV, deterministic for a fixed (input, seed,
tolerance) triple.  The exit code is 0 exactly when every requested check
lands within tolerance.  Set PVI_LOG=INFO (or any logging level) to log
each call's subcommand and exit code on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys

import numpy as np

from . import backlund, cubic, flow, fuchsian, modular, params, rk, serialize

log = logging.getLogger(__name__)


def _load_input(spec):
    if spec is None:
        raise ValueError("this subcommand needs --input")
    if spec == "-":
        data = json.load(sys.stdin)
    elif spec.strip().startswith(("{", "[")):
        data = json.loads(spec)
    else:
        with open(spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"input must be a JSON object, got {type(data).__name__}")
    return data


@contextlib.contextmanager
def _output(path):
    """stdout for no path or "-", else the file at path, closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _emit(args, payload):
    # a nan or inf is not JSON: ValueError, and nothing is written
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with _output(args.out) as fh:
        fh.write(text + "\n")


def cmd_classify(args):
    """The stratum of kappa or theta; on_wall is true iff S(theta) is singular."""
    data = _load_input(args.input)
    if "kappa" in data or "kappa_free" in data:
        kappa = serialize.decode_exponents(data)
        label = params.classify_stratum(kappa)
        lift = serialize.encode_complex(cubic.discriminant_lift(params.kappa_to_a(kappa)))
    elif "theta" in data:
        theta = serialize.decode_complex_seq(data["theta"], 4)
        lift = None
        label = params.label_stratum(cubic.singular_points(theta))
    else:
        raise ValueError("classify input needs 'kappa', 'kappa_free' or 'theta'")
    payload = {
        "on_wall": bool(label.report.points),
        "discriminant_lift": lift,
        "stratum": label.dynkin_type,
        "index_set_size": label.index_set_size,
        "singular_points": serialize.encode_singular_points(label.report.points),
    }
    _emit(args, payload)
    return 0


def cmd_rh(args):
    data = _load_input(args.input)
    pt = serialize.decode_phase_point(data)
    tol = args.tol if args.tol is not None else 1e-6
    rep = fuchsian.monodromy(pt)
    point = rep.surface_point(pt.kappa)
    apparency = fuchsian.apparent_check(pt)
    payload = {
        "x": serialize.encode_complex_seq(point.x),
        "a": serialize.encode_complex_seq(params.kappa_to_a(pt.kappa)),
        "theta": serialize.encode_complex_seq(point.theta),
        "traces": serialize.encode_complex_seq(rep.traces()),
        "fricke_residual": float(point.residual),
        "apparency": float(apparency),
        "product_defect": float(rep.product_defect()),
    }
    _emit(args, payload)
    checks = (
        point.residual <= tol
        and apparency <= tol
        and rep.product_defect() <= tol
    )
    return 0 if checks else 1


def cmd_orbit(args):
    data = _load_input(args.input)
    point = serialize.decode_ambient_point(data["point"])
    word = modular.parse_word(data.get("word", ""))
    n = data.get("n", 0)
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    tol = args.tol if args.tol is not None else 1e-8
    samples = modular.orbit(point, word, n)
    if not all(math.isfinite(math.hypot(s.f.real, s.f.imag)) for s in samples):
        raise ValueError("|f(x, theta)| overflows on the orbit: x is out of range")
    with _output(args.out) as fh:
        serialize.write_orbit_csv(fh, samples)
    scale = max(1.0, *(abs(z) for s in samples for z in s.point.x.tolist()))
    drift = max(abs(s.f - samples[0].f) for s in samples)
    # a product, not scale**3: a float ** raises OverflowError past 1e308
    return 0 if drift <= tol * (scale * scale * scale) else 1


def cmd_flow(args):
    data = _load_input(args.input)
    pt = serialize.decode_phase_point(data["point"])
    if not isinstance(data["path"], list):
        raise ValueError(f"path must be a list of pole triples, got {data['path']!r}")
    path = flow.TimePath.make(
        [serialize.decode_complex_seq(v, 3) for v in data["path"]]
    )
    tol = args.tol if args.tol is not None else 1e-6
    traj = flow.integrate(pt, path)
    residuals = flow.pvi_residual(traj) if traj.in_chart() else None
    with _output(args.out) as fh:
        serialize.write_trajectory_csv(fh, traj, residuals)
    if residuals is not None and residuals.max() > tol:
        return 1
    return 0


def cmd_monodromy(args):
    data = _load_input(args.input)
    pt = serialize.decode_phase_point(data["point"])
    braid = modular.parse_word(data["braid"])
    tol = args.tol if args.tol is not None else 1e-4
    ret = flow.nonlinear_monodromy(pt, braid)
    start = fuchsian.rh_point(pt)
    end = fuchsian.rh_point(ret)
    word = modular.braid_to_modular(braid)
    predicted = modular.apply_word(
        word, modular.AmbientPoint.make(start.x, start.theta)
    )
    deviation = float(np.max(np.abs(end.x - predicted.x)))
    payload = {
        "orientation": "fwd",
        "x_start": serialize.encode_complex_seq(start.x),
        "x_return": serialize.encode_complex_seq(end.x),
        "x_modular": serialize.encode_complex_seq(predicted.x),
        "deviation": deviation,
        "end_point": serialize.encode_phase_point(ret),
    }
    _emit(args, payload)
    return 0 if deviation <= tol else 1


def cmd_backlund(args):
    data = _load_input(args.input)
    pt = serialize.decode_phase_point(data["point"])
    word = backlund.parse_backlund_word(data["word"])
    tol = args.tol if args.tol is not None else 1e-10
    out = backlund.apply_word(word, pt)
    drift = float(
        np.max(
            np.abs(params.rh_param(out.kappa) - params.rh_param(pt.kappa))
        )
    )
    payload = {
        "end": serialize.encode_phase_point(out),
        "theta_drift": drift,
    }
    _emit(args, payload)
    return 0 if drift <= tol else 1


def _selftest_checks(seed):
    rng = np.random.default_rng(seed)

    worst = 0.0
    for _ in range(200):
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        th = rng.normal(size=4) + 1j * rng.normal(size=4)
        point = modular.AmbientPoint.make(x, th)
        base = cubic.eval_f(x, th)
        for i in (1, 2, 3):
            moved = modular.apply_generator(i, point)
            worst = max(
                worst,
                abs(cubic.eval_f(moved.x, moved.theta) - base)
                / max(1.0, abs(base)),
            )
    yield "fricke invariance (200 points)", worst, 1e-12

    worst = 0.0
    for _ in range(20):
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        th = rng.normal(size=4) + 1j * rng.normal(size=4)
        point = modular.AmbientPoint.make(x, th)
        for i in (1, 2, 3):
            j = (i % 3) + 1
            lhs = modular.apply_word([i, j, i], point)
            rhs = modular.apply_word([j, i, j], point)
            worst = max(worst, float(np.max(np.abs(lhs.x - rhs.x))))
    yield "modular braid relations (20 points)", worst, 1e-10

    theta = np.array([8.0, 8.0, 8.0, 28.0], dtype=complex)
    report = cubic.singular_points(theta)
    ok = (
        len(report.points) == 1
        and report.points[0].local_type == "D4"
        and float(np.max(np.abs(report.points[0].x - 2.0))) <= 1e-8
    )
    yield "D4 surface has one triple point at (2,2,2)", 0.0 if ok else 1.0, 0.5

    kap = params.Exponents.from_free(0.21, 0.33, 0.17, 0.11)
    pt = fuchsian.PhasePoint.make(0.4 + 0.3j, 0.2 - 0.5j, (0.0, 1.0, 2.0), kap)
    point = fuchsian.rh_point(pt)
    yield "riemann-hilbert residual", float(point.residual), 1e-6

    kap_r = params.Exponents.from_free(0.23, 0.31, 0.17, 0.29)
    pt_r = fuchsian.PhasePoint.make(0.4 + 0.3j, 0.0, (0.0, 1.0, 2.0), kap_r)
    _, rep = flow.riccati_flow(
        pt_r, flow.TimePath.make([(0, 1, 2), (0, 1, 2.3 + 0.2j)])
    )
    yield "riccati locus invariance", rep.max_p, 1e-8

    worst = 0.0
    for _ in range(20):
        k = params.Exponents.from_free(*(rng.normal(size=4) * 0.3))
        t = np.array([0.0, 1.0, 2.0]) + rng.normal(size=3) * 0.1
        q = complex(rng.normal(), rng.normal())
        p = complex(rng.normal(), rng.normal())
        if min(abs(q - ti) for ti in t) < 0.1 or abs(p) < 0.1:
            continue
        ptb = fuchsian.PhasePoint.make(q, p, t, k)
        for i in range(5):
            out = backlund.apply_word([i, i], ptb)
            worst = max(worst, abs(out.q - ptb.q), abs(out.p - ptb.p))
    yield "backlund involutions (20 points)", worst, 1e-10


def cmd_selftest(args):
    failures = 0
    for name, value, tol in _selftest_checks(args.seed):
        passed = value <= tol
        status = "pass" if passed else "FAIL"
        print(f"{status}  {name}: {value:.3e} (tol {tol:.0e})")
        failures += 0 if passed else 1
    return 0 if failures == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pvi",
        description="Painleve VI dynamics: cubic surfaces, monodromy, flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--input": {"help": "JSON file, inline JSON, or - for stdin"},
        "--out": {"help": "output path (default stdout)"},
        "--tol": {"type": float, "help": "check tolerance"},
        "--seed": {"type": int, "default": 0, "help": "seed of the randomized batteries"},
    }
    io = ("--input", "--out", "--tol")
    specs = {
        "classify": (cmd_classify, "wall status and surface singularities",
                     ("--input", "--out")),
        "rh": (cmd_rh, "monodromy coordinates of a phase point", io),
        "orbit": (cmd_orbit, "iterate a modular-group word, CSV output", io),
        "flow": (cmd_flow, "integrate the Hamiltonian flow, CSV output", io),
        "monodromy": (cmd_monodromy, "compare a braid loop with its modular action", io),
        "backlund": (cmd_backlund, "apply a transformation word", io),
        "selftest": (cmd_selftest, "run a quick deterministic battery", ("--seed",)),
    }
    for name, (func, help_text, flags) in specs.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.set_defaults(func=func)
    return parser


_PARSER = None  # built by the first main() call: a build costs about 1.5 ms


def main(argv=None):
    global _PARSER
    level = os.environ.get("PVI_LOG")
    if level:
        logging.basicConfig(level=level.upper())
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
    except (
        ValueError,
        KeyError,
        OSError,
        cubic.NoConvergenceError,
        params.UnclassifiableError,
        modular.EscapeError,
        flow.BlowUpError,
        rk.StepUnderflowError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    log.info("pvi %s: exit %d", args.command, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
