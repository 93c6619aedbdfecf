"""Acceptance battery: one test per shipping criterion, one verdict line each.

Every test prints a single line of the form

    ACCEPTANCE nn PASS|FAIL: <measured quantities against their tolerances>

and then asserts, so a verbose pytest run shows one status line per criterion
and the printed diagnostics surface on failure.  Runtime budgets are asserted
alongside the numeric tolerances.
"""

import time

import numpy as np

from pvi import backlund, cubic, flow, fuchsian, modular, params


def _verdict(number, ok, detail):
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _random_ambient(rng):
    z = rng.standard_normal(14)
    return modular.AmbientPoint.make(z[:3] + 1j * z[3:6], z[6:10] + 1j * z[10:14])


def test_criterion_01_fricke_invariance():
    """f is preserved by each generator on 1000 random ambient points."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        pt = _random_ambient(rng)
        val = cubic.eval_f(pt.x, pt.theta)
        bound = 1e-12 * max(1.0, abs(val))
        for i in (1, 2, 3):
            out = modular.apply_generator(i, pt)
            dev = abs(cubic.eval_f(out.x, out.theta) - val) / max(1.0, abs(val))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _verdict(1, ok, f"invariance defect {worst:.3e} (tol 1e-12), {elapsed:.2f}s (< 1s)")


def test_criterion_02_modular_relations():
    """Braid, order-six, and conjugation relations; unit Jacobian determinant."""
    rng = np.random.default_rng(102)
    worst_rel = 0.0
    worst_det = 0.0
    for _ in range(100):
        pt = _random_ambient(rng)
        for i, j in [(1, 2), (2, 3), (3, 1)]:
            lhs = modular.apply_word([i, j, i], pt)
            rhs = modular.apply_word([j, i, j], pt)
            worst_rel = max(worst_rel, float(np.max(np.abs(lhs.x - rhs.x))))
            cyc = modular.apply_word([i, j] * 3, pt)
            worst_rel = max(worst_rel, float(np.max(np.abs(cyc.x - pt.x))))
        for i, j, k in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
            conj = modular.apply_word([-i, j, i], pt)
            direct = modular.apply_word([k], pt)
            worst_rel = max(worst_rel, float(np.max(np.abs(conj.x - direct.x))))
        for letter in (1, 2, 3):
            det = np.linalg.det(modular.jacobian(letter, pt))
            worst_det = max(worst_det, abs(det - 1.0))
    ok = worst_rel <= 1e-10 and worst_det <= 1e-12
    _verdict(
        2,
        ok,
        f"relation defect {worst_rel:.3e} (tol 1e-10), "
        f"det defect {worst_det:.3e} (tol 1e-12)",
    )


def test_criterion_03_most_singular_example():
    """theta = (8,8,8,28): one D4 point at (2,2,2), fixed by the squares."""
    start = time.perf_counter()
    report = cubic.singular_points([8.0, 8.0, 8.0, 28.0])
    n_points = len(report.points)
    location_err = float("inf")
    corank = -1
    fixed = False
    if n_points == 1:
        p = report.points[0]
        location_err = float(np.max(np.abs(p.x - np.array([2.0, 2.0, 2.0]))))
        corank = p.hessian_corank
        ambient = modular.AmbientPoint.make([2.0, 2.0, 2.0], [8.0, 8.0, 8.0, 28.0])
        fixed = all(
            modular.fixed_point_check([i, i], ambient) for i in (1, 2, 3)
        )
    elapsed = time.perf_counter() - start
    ok = (
        n_points == 1
        and location_err <= 1e-8
        and corank == 2
        and fixed
        and elapsed < 1.0
    )
    _verdict(
        3,
        ok,
        f"{n_points} singular point(s), |x - (2,2,2)| = {location_err:.3e} "
        f"(tol 1e-8), corank {corank}, fixed by squares: {fixed}, "
        f"{elapsed:.2f}s (< 1s)",
    )


STRATA_BATTERY = [
    ((5 / 32, 1 / 4, 1 / 4, 1 / 8, 1 / 16), "smooth"),
    ((0, 7 / 20, 1 / 10, 3 / 20, 2 / 5), "A1"),
    ((5 / 32, 0, 1 / 4, 1 / 8, 5 / 16), "A1"),
    ((5 / 16, 0, 0, 1 / 8, 1 / 4), "2A1"),
    ((7 / 16, 0, 0, 0, 1 / 8), "3A1"),
    ((1 / 2, 0, 0, 0, 0), "4A1"),
    ((0, 0, 1 / 4, 1 / 4, 1 / 2), "A2"),
    ((0, 0, 0, 1 / 2, 1 / 2), "A3"),
    ((0, 0, 0, 0, 1), "D4"),
]


def test_criterion_04_stratification_battery():
    """Every stratum representative classifies to its Dynkin label."""
    start = time.perf_counter()
    failures = []
    for kappa, expected in STRATA_BATTERY:
        k = params.Exponents(*kappa)
        label = params.classify_stratum(k)
        if label.dynkin_type != expected:
            failures.append(f"{expected} got {label.dynkin_type}")
        if params.on_wall(k) != bool(cubic.singular_points(params.rh_param(k))):
            failures.append(f"{expected}: wall/singular disagreement")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _verdict(
        4,
        ok,
        f"{len(STRATA_BATTERY)} strata classified, "
        f"failures {failures or 'none'}, {elapsed:.2f}s (< 10s)",
    )


def _seeded_phase_points(rng, count):
    """Unit-scale phase points with real kappa components in [-0.9, 0.9].

    Three input-side conditioning rejections keep the absolute tolerances
    meaningful in double precision.  Kappa components stay at distance
    >= 0.1 from the integers, away from the walls where a local monodromy
    degenerates to a single Jordan block and trace extraction becomes
    ill-conditioned.  q stays in a band off the real axis, clear of the
    pole loops.  The accessory magnitudes max_i |H_i| are capped: the pair
    traces of the monodromy grow exponentially with them, and once |x|
    exceeds ~1e3 the cubic f(x, theta) cannot be evaluated to 1e-6
    absolute in doubles no matter how the matrices were obtained.
    """
    points = []
    while len(points) < count:
        free = rng.uniform(-0.8, 0.8, size=4)
        k0 = (1.0 - free.sum()) / 2.0
        comps = np.concatenate([[k0], free])
        if np.max(np.abs(comps)) > 0.8:
            continue
        if np.min(np.abs(comps)) < 0.1 or np.min(np.abs(np.abs(comps) - 1.0)) < 0.2:
            continue
        k = params.Exponents.from_free(*free)
        q = complex(rng.uniform(-1, 1), rng.uniform(0.2, 0.6))
        p = 0.5 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        pt = fuchsian.PhasePoint.make(q, p, (0.0, 1.0, 2.0), k)
        if max(abs(fuchsian.hamiltonian(i, pt)) for i in (1, 2, 3)) > 0.7:
            continue
        points.append(pt)
    return points


def test_criterion_05_numeric_riemann_hilbert():
    """Monodromy data of 20 seeded points: traces, product, apparency, f."""
    rng = np.random.default_rng(105)
    start = time.perf_counter()
    worst_f = worst_tr = worst_prod = worst_app = 0.0
    for pt in _seeded_phase_points(rng, 20):
        rep = fuchsian.monodromy(pt)
        x = rep.surface_coordinates()
        theta = params.rh_param(pt.kappa)
        worst_f = max(worst_f, abs(cubic.eval_f(x, theta)))
        a = params.kappa_to_a(pt.kappa)
        worst_tr = max(worst_tr, float(np.max(np.abs(rep.traces() - a))))
        worst_prod = max(worst_prod, rep.product_defect())
        worst_app = max(worst_app, fuchsian.apparent_check(pt))
    elapsed = time.perf_counter() - start
    ok = (
        worst_f <= 1e-6
        and worst_tr <= 1e-6
        and worst_prod <= 1e-6
        and worst_app <= 1e-6
        and elapsed < 30.0
    )
    _verdict(
        5,
        ok,
        f"|f| {worst_f:.3e}, traces {worst_tr:.3e}, product {worst_prod:.3e}, "
        f"apparency {worst_app:.3e} (each tol 1e-6), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_06_isomonodromy():
    """rh_point is constant along a straight t3 segment of length 0.5."""
    k = params.Exponents.from_free(0.21, 0.33, 0.17, 0.11)
    pt = fuchsian.PhasePoint.make(0.4 + 0.3j, 0.2 - 0.5j, (0.0, 1.0, 2.0), k)
    start = time.perf_counter()
    path = flow.TimePath.make([(0, 1, 2), (0, 1, 2.5)])
    end = flow.integrate(pt, path).end()
    drift = float(np.max(np.abs(fuchsian.rh_point(end).x - fuchsian.rh_point(pt).x)))
    elapsed = time.perf_counter() - start
    ok = drift <= 1e-5 and elapsed < 10.0
    _verdict(6, ok, f"x drift {drift:.3e} (tol 1e-5), {elapsed:.1f}s (< 10s)")


def test_criterion_07_nonlinear_monodromy_orientation():
    """The beta_1^2 return map realizes g_1^2 under exactly one orientation."""
    rng = np.random.default_rng(107)
    start = time.perf_counter()
    worst_pass = 0.0
    flags = set()
    details = []
    for pt in _seeded_phase_points(rng, 5):
        ret = flow.nonlinear_monodromy(pt, [1, 1])
        x0 = fuchsian.rh_point(pt)
        x1 = fuchsian.rh_point(ret)
        z = modular.AmbientPoint.make(x0.x, x0.theta)
        d = {}
        for orientation in ("fwd", "inv"):
            word = modular.braid_to_modular([1, 1], orientation)
            image = modular.apply_word(word, z)
            d[orientation] = float(np.max(np.abs(x1.x - image.x)))
        passing = [o for o in ("fwd", "inv") if d[o] <= 1e-4]
        if len(passing) == 1:
            flags.add(passing[0])
            worst_pass = max(worst_pass, d[passing[0]])
        else:
            flags.add("ambiguous")
        details.append(f"fwd {d['fwd']:.1e} / inv {d['inv']:.1e}")
    elapsed = time.perf_counter() - start
    ok = flags == {"fwd"} and elapsed < 120.0
    _verdict(
        7,
        ok,
        f"passing orientation {sorted(flags)} with deviation {worst_pass:.3e} "
        f"(tol 1e-4) on 5 points [{'; '.join(details)}], {elapsed:.1f}s (< 2min)",
    )


def test_criterion_08_backlund_suite():
    """Weyl relations, parameter invariance, equivariance, gauge invariance."""
    rng = np.random.default_rng(108)
    start = time.perf_counter()

    def random_point():
        k = params.Exponents.from_free(*(rng.normal(size=4) * 0.3))
        t = rng.normal(size=3) + 1j * rng.normal(size=3)
        while min(abs(t[i] - t[j]) for i in range(3) for j in range(i + 1, 3)) < 0.5:
            t = rng.normal(size=3) + 1j * rng.normal(size=3)
        q = complex(rng.normal(), rng.normal())
        p = complex(rng.normal(), rng.normal())
        while min(abs(q - ti) for ti in t) < 0.1 or abs(p) < 0.1:
            q = complex(rng.normal(), rng.normal())
            p = complex(rng.normal(), rng.normal())
        return fuchsian.PhasePoint.make(q, p, t, k)

    def dist(a, b):
        return max(
            abs(a.q - b.q),
            abs(a.p - b.p),
            float(np.max(np.abs(a.kappa.as_array() - b.kappa.as_array()))),
        )

    worst_rel = 0.0
    worst_theta = 0.0
    for _ in range(100):
        pt = random_point()
        for i in range(5):
            worst_rel = max(worst_rel, dist(backlund.apply_word([i, i], pt), pt))
            out = backlund.apply_basic(i, pt)
            worst_theta = max(
                worst_theta,
                float(np.max(np.abs(params.rh_param(out.kappa) - params.rh_param(pt.kappa)))),
            )
        for i in range(1, 5):
            worst_rel = max(worst_rel, dist(backlund.apply_word([0, i] * 3, pt), pt))
        for i in range(1, 5):
            for j in range(1, 5):
                if i != j:
                    worst_rel = max(
                        worst_rel, dist(backlund.apply_word([i, j] * 2, pt), pt)
                    )

    k = params.Exponents.from_free(0.21, 0.33, 0.17, 0.11)
    pt = fuchsian.PhasePoint.make(0.4 + 0.3j, 0.2 - 0.5j, (0.0, 1.0, 2.0), k)
    path = flow.TimePath.make([(0, 1, 2), (0, 1, 2.3 + 0.2j)])
    worst_equi = max(
        backlund.check_equivariance(i, pt, path).deviation for i in range(5)
    )
    x_ref = fuchsian.rh_point(pt)
    worst_gauge = max(
        float(np.max(np.abs(fuchsian.rh_point(backlund.apply_basic(i, pt)).x - x_ref.x)))
        for i in range(5)
    )
    elapsed = time.perf_counter() - start
    ok = (
        worst_rel <= 1e-10
        and worst_theta <= 1e-12
        and worst_equi <= 1e-6
        and worst_gauge <= 1e-5
        and elapsed < 60.0
    )
    _verdict(
        8,
        ok,
        f"relations {worst_rel:.3e} (tol 1e-10), rh_param {worst_theta:.3e} "
        f"(tol 1e-12), equivariance {worst_equi:.3e} (tol 1e-6), "
        f"rh_point {worst_gauge:.3e} (tol 1e-5), {elapsed:.1f}s (< 1min)",
    )


def test_criterion_09_scalar_equation_oracle():
    """Residual small on genuine data, large after a mid-run p perturbation."""
    k = params.Exponents.from_free(0.21, 0.33, 0.17, 0.11)
    start = time.perf_counter()
    pt = fuchsian.PhasePoint.make(0.4 + 0.3j, 0.2 - 0.5j, (0.0, 1.0, 2.0 + 0.1j), k)
    path = flow.TimePath.make([(0, 1, 2 + 0.1j), (0, 1, 3 + 0.1j)])
    traj = flow.integrate(pt, path)
    res_good = float(flow.pvi_residual(traj).max())

    cut = len(traj.samples) // 2
    mid = traj.samples[cut]
    restart = fuchsian.PhasePoint.make(mid.q, mid.p + 0.1, mid.t, k)
    rest = flow.integrate(restart, flow.TimePath.make([mid.t, (0, 1, 3 + 0.1j)]))
    spliced = flow.Trajectory(
        kappa=k, samples=traj.samples[: cut + 1] + rest.samples[1:]
    )
    res_bad = float(flow.pvi_residual(spliced).max())
    elapsed = time.perf_counter() - start
    ok = res_good <= 1e-6 and res_bad > 1e-3 and elapsed < 10.0
    _verdict(
        9,
        ok,
        f"genuine residual {res_good:.3e} (tol 1e-6), perturbed {res_bad:.3e} "
        f"(must exceed 1e-3), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_10_riccati_locus():
    """k0 = 0, p = 0: invariant locus, quadratic flow, linearization, RH image."""
    k = params.Exponents.from_free(0.23, 0.31, 0.17, 0.29)
    start = time.perf_counter()
    pt = fuchsian.PhasePoint.make(0.4 + 0.3j, 0.0, (0.0, 1.0, 2.0), k)
    path = flow.TimePath.make([(0, 1, 2), (0, 1, 2.4 + 0.3j)])
    traj, report = flow.riccati_flow(pt, path)
    sp = fuchsian.rh_point(traj.end())
    singular = cubic.singular_points(sp.theta)
    dist_singular = (
        min(float(np.max(np.abs(sp.x - s.x))) for s in singular.points)
        if singular.points
        else float("inf")
    )
    elapsed = time.perf_counter() - start
    ok = (
        report.max_p <= 1e-8
        and report.quadratic_defect <= 1e-10
        and report.max_linearization_deviation <= 1e-6
        and dist_singular <= 1e-5
        and elapsed < 30.0
    )
    _verdict(
        10,
        ok,
        f"max |p| {report.max_p:.3e} (tol 1e-8), quadratic defect "
        f"{report.quadratic_defect:.3e} (exactness), linearization "
        f"{report.max_linearization_deviation:.3e} (tol 1e-6), singular-point "
        f"distance {dist_singular:.3e} (tol 1e-5), {elapsed:.1f}s (< 30s)",
    )
