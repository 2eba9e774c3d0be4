"""End-to-end verification suite.

Each test checks one advertised guarantee of the package at its stated
tolerance and records a single pass/fail line, shown in the terminal
summary.  The whole module is designed to run in well under a minute.
"""

from dataclasses import replace

import numpy as np
import pytest
from conftest import ACCEPTANCE_RESULTS

from gonosim import (
    Element,
    IterationOptions,
    Scenario,
    apply_V,
    apply_W,
    check_identities,
    classify_eset,
    classify_spectrum,
    closed_form_fixed_points_hemophilia,
    closed_form_fixed_points_type11,
    closed_form_fixed_points_type21,
    closed_form_trajectory_type11,
    hemophilia_degenerate_limits,
    hemophilia_lyapunov,
    idempotent_correspondence,
    iterate,
    jacobian_W,
    multiply,
    omega,
    predict_limit_type21,
    random_stochastic,
    solve_fixed_points_numeric,
    stability_transfer_check,
    verify_coordinate_bounds,
    verify_omega_bounds,
)
from gonosim.errors import DegenerateDenominator
from gonosim.fixed_points import jacobian_V
from gonosim.scenarios import hemophilia_spec, type11_spec, type21_spec

ZERO_KINDS = ("extinct", "numerically_extinct")


def record(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    ACCEPTANCE_RESULTS.append(f"  criterion {number:2d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _orbit_goes_to_zero(traj) -> bool:
    if traj.outcome.kind in ZERO_KINDS:
        return True
    if traj.outcome.kind == "converged":
        return float(np.abs(traj.outcome.point.vector).sum()) < 1e-6
    return False


@pytest.fixture(scope="module")
def algebra_pool():
    """1000 random stochastic algebras up to type (3, 3)."""
    rng = np.random.default_rng(2024)
    pool = []
    for seed in range(1000):
        n = int(rng.integers(1, 4))
        nu = int(rng.integers(1, 4))
        pool.append(random_stochastic(n, nu, seed))
    return pool


def test_criterion_1_single_locus_trichotomy():
    failures = []
    grid = np.linspace(0.25, 6.0, 20)
    for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
        spec = type11_spec(gamma)
        thr = 1.0 / (gamma * (1.0 - gamma))
        for x0 in grid:
            for y0 in grid:
                prod = abs(x0 * y0)
                traj = iterate(Element.from_vector([x0, y0], 1), spec, "W")
                if prod < thr:
                    ok = _orbit_goes_to_zero(traj)
                else:
                    ok = traj.outcome.kind == "divergent"
                if not ok:
                    failures.append((gamma, x0, y0, traj.outcome.kind))
        # boundary: the orbit is constant, checked against the closed form
        s = float(np.sqrt(thr))
        z0 = Element.from_vector([s, s], 1)
        z = z0
        for _ in range(6):
            z = apply_W(z, spec)
        cf = closed_form_trajectory_type11(z0, gamma, 6)
        rel = float(np.abs(cf.vector - z.vector).max() / np.abs(z.vector).max())
        if rel > 1e-10:
            failures.append((gamma, "boundary", rel))
    record(1, "single-locus trichotomy", not failures, str(failures[:3]))


def test_criterion_2_normalized_map_stationary():
    rng = np.random.default_rng(1)
    max_err = 0.0
    for gamma in (0.3, 0.6):
        spec = type11_spec(gamma)
        for _ in range(50):
            z = Element.from_vector(rng.dirichlet(np.ones(2)), 1)
            out = apply_V(z, spec).vector
            max_err = max(max_err, float(np.abs(out - [gamma, 1 - gamma]).max()))
    record(2, "normalized map stationary after one step", max_err < 1e-12, f"max error {max_err:.2e}")


TYPE21_CASE_INSTANCES = [
    # (params, expected isolated points, has_family)
    ((0.3, 0.0, 0.2, 0.0), [(1 / 0.7, 0.0, 1 / 0.3)], False),
    ((0.0, 0.4, 0.0, 0.3), [(0.0, 1 / 0.7, 1 / 0.3)], False),
    ((0.2, 0.2, 0.3, 0.3), [(1.0, 1.0, 2.0)], False),
    ((0.3, 0.0, 0.0, 0.3), [], True),
    ((0.2, 0.0, 0.0, 0.4), [(1 / 0.8, 0.0, 1 / 0.2), (0.0, 1 / 0.6, 1 / 0.4)], False),
    ((0.3, 0.2, 0.0, 0.3), [(0.0, 1 / 0.7, 1 / 0.3)], False),
    (
        (0.4, 0.2, 0.0, 0.2),
        [(0.2 / 0.24, 0.2 / 0.24, 1 / 0.4), (0.0, 1 / 0.8, 1 / 0.2)],
        False,
    ),
    ((0.3, 0.0, 0.2, 0.3), [(1 / 0.7, 0.0, 1 / 0.3)], False),
    (
        (0.3, 0.0, 0.2, 0.4),
        [(1 / 0.7, 0.0, 1 / 0.3), (0.2 / 0.18, 0.1 / 0.18, 1 / 0.4)],
        False,
    ),
    ((0.3, 0.2, 0.2, 0.2), None, False),  # quadratic roots, checked by residual only
]


def test_criterion_3_two_female_type_fixed_point_table():
    failures = []
    for params, expected, has_family in TYPE21_CASE_INSTANCES:
        spec = type21_spec(*params)
        closed = closed_form_fixed_points_type21(*params)
        for rec in closed:
            if rec.residual >= 1e-10:
                failures.append((params, "residual", rec.residual))
        if expected is not None:
            targets = [np.zeros(3)] + [np.array(p) for p in expected]
            got = [r.point.vector for r in closed if r.family is None]
            for tgt in targets:
                if min(float(np.abs(tgt - g).sum()) for g in got) > 1e-9:
                    failures.append((params, "missing closed-form point", tgt.tolist()))
        fams_closed = [r for r in closed if r.family is not None]
        if bool(fams_closed) != has_family:
            failures.append((params, "family flag", len(fams_closed)))

        numeric = solve_fixed_points_numeric(spec, "W", grid=3, seed=0, random_starts=24)
        num_pts = [r.point.vector for r in numeric if r.family is None]
        num_fams = [r.family for r in numeric if r.family is not None]
        for rec in closed:
            v = rec.point.vector
            if rec.family is not None or any(f.contains(v) for f in num_fams):
                continue
            best = min(float(np.abs(v - p).sum()) for p in num_pts)
            if best > 1e-6:
                failures.append((params, "numeric miss", v.tolist(), best))
    record(3, "two-female-type fixed-point table", not failures, str(failures[:3]))


def _brute_eset(z0, g1, g2, d1, d2, steps=64):
    g, d = 1.0 - g1 - g2, 1.0 - d1 - d2
    x1, x2, y = float(z0.x[0]), float(z0.x[1]), float(z0.y[0])
    zeros = {0} if x2 == 0.0 else set()
    for t in range(1, steps + 1):
        x1, x2, y = (
            (g1 * x1 + d1 * x2) * y,
            (g2 * x1 + d2 * x2) * y,
            (g * x1 + d * x2) * y,
        )
        scale = abs(x1) + abs(x2) + abs(y)
        x1, x2, y = x1 / scale, x2 / scale, y / scale
        if x2 == 0.0:
            zeros.add(t)
    all_t = set(range(steps + 1))
    if all_t - {0} <= zeros:
        return "infinite_all_positive_steps", 0
    if zeros == {t for t in all_t if t % 2 == 1}:
        return "infinite_odd", 0
    if zeros == {t for t in all_t if t % 2 == 0}:
        return "infinite_even", 0
    return "finite", (max(zeros) + 1) if zeros else 0


def test_criterion_4_vanishing_index_classification():
    rng = np.random.default_rng(7)
    mismatches = 0
    for i in range(1000):
        mode = i % 4
        if mode == 0:
            g1, g2 = rng.dirichlet(np.ones(3))[:2]
            d1, d2 = rng.dirichlet(np.ones(3))[:2]
        elif mode == 1:
            g1, g2 = float(rng.uniform(0.05, 0.9)), 0.0
            d1, d2 = rng.dirichlet(np.ones(3))[:2]
        elif mode == 2:
            g1, d2 = 0.0, 0.0
            g2 = float(rng.uniform(0.05, 0.9))
            d1 = float(rng.uniform(0.05, 0.9))
        else:
            g1, g2 = rng.dirichlet(np.ones(3))[:2]
            d1, d2 = 0.0, float(rng.uniform(0.05, 0.9))
        start_mode = (i // 4) % 3
        v = rng.dirichlet(np.ones(3))
        if start_mode == 1:
            v = np.array([0.0, v[1], v[2]]) / (v[1] + v[2])
        elif start_mode == 2:
            v = np.array([v[0], 0.0, v[2]]) / (v[0] + v[2])
        z0 = Element.from_vector(v, 2)
        s = Scenario(
            "recessive_lethal",
            {"gamma1": g1, "gamma2": g2, "delta1": d1, "delta2": d2},
        )
        cls = classify_eset(z0, s)
        brute_kind, brute_t0 = _brute_eset(z0, g1, g2, d1, d2)
        if cls.kind != brute_kind or (cls.kind == "finite" and cls.t0 != brute_t0):
            mismatches += 1
    record(4, "vanishing-index classification vs brute force", mismatches == 0, f"{mismatches} mismatches")


def test_criterion_5_period_two_orbit_and_thresholds():
    failures = []
    # cycle detection against the alternating pair
    spec = type21_spec(0.0, 0.3, 0.4, 0.0)
    traj = iterate(Element.from_vector([0.0, 0.6, 0.4], 2), spec, "V")
    if traj.outcome.kind != "cycle" or traj.outcome.period != 2:
        failures.append(("cycle", traj.outcome.kind))
    else:
        reps = [r.vector for r in traj.outcome.representatives]
        for target in (np.array([0.4, 0.0, 0.6]), np.array([0.0, 0.3, 0.7])):
            if min(float(np.abs(target - r).max()) for r in reps) > 1e-9:
                failures.append(("cycle state", target.tolist()))

    # threshold trichotomy over a parameter grid, both zero patterns
    for g2 in (0.3, 0.5, 0.7):
        for d1 in (0.3, 0.5, 0.7):
            spec = type21_spec(0.0, g2, d1, 0.0)
            s = Scenario(
                "recessive_lethal",
                {"gamma1": 0.0, "gamma2": g2, "delta1": d1, "delta2": 0.0},
            )
            for pattern in ("odd", "even"):
                gbar, dbar = 1.0 - g2, 1.0 - d1
                if pattern == "odd":
                    thr = 1.0 / np.cbrt(g2 * d1**2 * gbar * dbar**2)
                    make = lambda t: Element.from_vector([0.0, t, t], 2)
                else:
                    thr = 1.0 / np.cbrt(g2**2 * d1 * gbar**2 * dbar)
                    make = lambda t: Element.from_vector([t, 0.0, t], 2)
                for factor, expect in ((0.8, "zero"), (1.25, "infinity")):
                    t_val = factor * float(np.sqrt(thr))
                    z0 = make(t_val)
                    pred = predict_limit_type21(z0, s)
                    if pred.w_limit != expect:
                        failures.append((g2, d1, pattern, factor, "prediction", pred.w_limit))
                        continue
                    traj = iterate(z0, spec, "W", IterationOptions(max_steps=200))
                    ok = (
                        _orbit_goes_to_zero(traj)
                        if expect == "zero"
                        else traj.outcome.kind == "divergent"
                    )
                    if not ok:
                        failures.append((g2, d1, pattern, factor, traj.outcome.kind))
    record(5, "period-2 orbit and alternating thresholds", not failures, str(failures[:3]))


def test_criterion_6_limit_from_transfer_matrix_eigenvalues():
    rng = np.random.default_rng(11)
    checked = 0
    failures = []
    while checked < 500:
        g1, g2 = rng.dirichlet(np.ones(3))[:2]
        d1, d2 = rng.dirichlet(np.ones(3))[:2]
        disc = (g1 - d2) ** 2 + 4.0 * g2 * d1
        if disc < 1e-6:
            continue
        root = float(np.sqrt(disc))
        lam_small = (g1 + d2 - root) / 2.0
        lam_big = (g1 + d2 + root) / 2.0
        if abs(lam_big) < 1e-3 or abs(lam_small / lam_big) > 0.8:
            continue
        z0 = Element.from_vector(rng.dirichlet(np.ones(3)), 2)
        s = Scenario(
            "recessive_lethal",
            {"gamma1": g1, "gamma2": g2, "delta1": d1, "delta2": d2},
        )
        try:
            pred = predict_limit_type21(z0, s)
        except DegenerateDenominator:
            continue
        if pred.kind != "distinct_eigenvalues":
            continue
        checked += 1
        if not (abs(pred.lambda1) < 1.0 and abs(pred.lambda2) < 1.0):
            failures.append(("eigenvalue outside unit disk", pred.lambda1, pred.lambda2))
            continue
        spec = type21_spec(g1, g2, d1, d2)
        z = z0
        for _ in range(100):
            z = apply_V(z, spec)
        err = float(np.abs(z.vector - np.array(pred.v_limit)).sum())
        if err > 1e-6:
            failures.append(((g1, g2, d1, d2), err))
    record(6, "limit from transfer-matrix eigenvalues", not failures, str(failures[:3]))


def test_criterion_7_hemophilia_model():
    rng = np.random.default_rng(13)
    failures = []

    # exact extinction in two / three generations
    spec11 = hemophilia_spec(1.0, 1.0)
    spec1e = hemophilia_spec(1.0, 0.3)
    for _ in range(100):
        z = Element.from_vector(rng.dirichlet(np.ones(4)), 2)
        z2 = apply_W(apply_W(z, spec11), spec11)
        if not np.all(z2.vector == 0.0):
            failures.append(("two-step extinction", z.vector.tolist()))
        w = apply_W(apply_W(apply_W(z, spec1e), spec1e), spec1e)
        if not np.all(w.vector == 0.0):
            failures.append(("three-step extinction", z.vector.tolist()))

    # nonzero fixed point of the eta = 1 family
    for mu in (0.0, 0.25, 0.5, 0.75):
        recs = closed_form_fixed_points_hemophilia(mu, 1.0)
        nz = [r for r in recs if np.abs(r.point.vector).sum() > 1e-9]
        if len(nz) != 1 or nz[0].residual >= 1e-12:
            failures.append(("fixed point", mu, [r.residual for r in nz]))

        # the normalized orbit is pinned to a constant state
        spec = hemophilia_spec(mu, 1.0)
        pred = hemophilia_degenerate_limits(
            Element.from_vector([0.25, 0.25, 0.25, 0.25], 2), mu, 1.0
        )
        for _ in range(5):
            z = Element.from_vector(rng.dirichlet(np.ones(4)), 2)
            z = apply_V(apply_V(z, spec), spec)
            for _ in range(3):
                err = float(np.abs(z.vector - np.array(pred.v_constant)).max())
                if err > 1e-12:
                    failures.append(("constancy", mu, err))
                z = apply_V(z, spec)

    # doubly exponential decay of the cross-sex mass product
    for _ in range(100):
        mu, eta = rng.uniform(0, 1), rng.uniform(0, 1)
        spec = hemophilia_spec(mu, eta)
        z = Element.from_vector(rng.dirichlet(np.ones(4)), 2)
        for n in range(1, 9):
            z = apply_W(z, spec)
            if hemophilia_lyapunov(z) > 0.25 ** (2**n) + 1e-15:
                failures.append(("decay bound", mu, eta, n))
                break
    record(7, "hemophilia model guarantees", not failures, str(failures[:3]))


def test_criterion_8_mass_evolution_suite(algebra_pool):
    rng = np.random.default_rng(17)
    failures = []
    for idx, spec in enumerate(algebra_pool):
        z_simplex = Element.from_vector(rng.dirichlet(np.ones(spec.dim)), spec.n)
        if omega(apply_W(z_simplex, spec)) > 0.25 + 1e-12:
            failures.append((idx, "quarter bound"))
        scale = float(rng.uniform(0.2, 4.0))
        z = Element(z_simplex.x * scale, z_simplex.y * scale)
        prev = omega(z)
        zz = z
        for _ in range(5):
            zz = apply_W(zz, spec)
            cur = omega(zz)
            if cur > prev + 1e-12:
                failures.append((idx, "monotone"))
                break
            prev = cur
        rep = verify_omega_bounds(z, spec, 6)
        if not rep.all_pass:
            failures.append((idx, "mass bounds", rep.first_violation))
        rep = verify_coordinate_bounds(z_simplex, spec, 6)
        if not rep.all_pass:
            failures.append((idx, "coordinate bounds", rep.first_violation))
        for rec in solve_fixed_points_numeric(spec, "W", grid=1, seed=idx, random_starts=3):
            v = rec.point.vector
            if np.abs(v).sum() < 1e-8 or np.any(v < -1e-9):
                continue
            if omega(rec.point) < 4.0 - 1e-9:
                failures.append((idx, "mass at fixed point", omega(rec.point)))
            half = idempotent_correspondence(rec, spec)
            defect = float(
                np.abs(multiply(half, half, spec).vector - half.vector).sum()
            )
            if defect > 1e-10:
                failures.append((idx, "idempotent", defect))
    record(8, "mass-evolution property suite (1000 algebras)", not failures, str(failures[:3]))


def test_criterion_9_identity_suite(algebra_pool):
    failures = []
    for idx, spec in enumerate(algebra_pool):
        report = check_identities(spec, samples=2, seed=idx)
        for name in ("associativity", "power_associativity", "jacobi"):
            if report[name].verdict != "violated" or report[name].defect <= 1e-8:
                failures.append((idx, name, report[name].defect))
        if report["flexibility"].defect >= 1e-10:
            failures.append((idx, "flexibility", report["flexibility"].defect))
    record(9, "identity suite (1000 algebras)", not failures, str(failures[:3]))


def _transfer_mismatch(rec) -> str | None:
    """Why the spectra of a W record break the transversal identity, or None.

    W is homogeneous of degree 2, so J_W(z*) z* = 2 z* at a non-zero fixed
    point z*, and the rest of the J_W spectrum is the spectrum of J_V at
    z*/omega(z*) on the simplex tangent space.  So the W spectrum without
    its eigenvalue nearest 2 must match the record's V spectrum in sorted
    modulus, and its spectral radius must carry the record's V label.
    """
    w = np.delete(rec.w_eigenvalues, np.argmin(np.abs(rec.w_eigenvalues - 2.0)))
    v = rec.v_eigenvalues
    if len(w) != len(v):
        return f"{len(w)} transversal W eigenvalues against {len(v)} V eigenvalues"
    gap = float(np.abs(np.sort(np.abs(w)) - np.sort(np.abs(v))).max(initial=0.0))
    if gap > 1e-6:
        return f"transversal W and V spectra differ by {gap:.2e}"
    if classify_spectrum(w) != rec.stability_v:
        return f"transversal W label {classify_spectrum(w)} against V label {rec.stability_v}"
    return None


def test_criterion_10_stability_transfer():
    failures = []
    candidates = []
    for gamma in (0.2, 0.4, 0.5, 0.6, 0.8):
        spec = type11_spec(gamma)
        candidates += [(spec, r) for r in closed_form_fixed_points_type11(gamma)[1:]]
    for params, _, _ in TYPE21_CASE_INSTANCES:
        spec = type21_spec(*params)
        for rec in closed_form_fixed_points_type21(*params):
            v = rec.point.vector
            if np.abs(v).sum() > 1e-8 and np.all(v >= -1e-12):
                candidates.append((spec, rec))
    # every normalizable W record of random algebras: a non-zero, non-negative
    # root whose scaled point has female and male mass carries a V spectrum
    for seed in range(8):
        for n in (1, 2, 3):
            for nu in (1, 2, 3):
                spec = random_stochastic(n, nu, seed)
                candidates += [(spec, r) for r in solve_fixed_points_numeric(spec, "W") if r.v_eigenvalues is not None]
    for spec, rec in candidates:
        rep = stability_transfer_check(rec, spec)
        if not rep.consistent:
            failures.append((rec.point.vector.tolist(), rep.stability_w, rep.stability_v))
        if (why := _transfer_mismatch(rec)) is not None:
            failures.append((rec.point.vector.tolist(), why))

    # the identity can fail: a V spectrum scaled by 1.5 breaks it
    spec, rec = next((s, r) for s, r in candidates if np.abs(r.v_eigenvalues).max() > 1e-3)
    if _transfer_mismatch(replace(rec, v_eigenvalues=1.5 * rec.v_eigenvalues)) is None:
        failures.append(("tampered V spectrum passes", rec.point.vector.tolist()))

    # converse failure: unstable unnormalized, superstable normalized
    spec = type11_spec(0.5)
    rec = closed_form_fixed_points_type11(0.5)[1]
    rep = stability_transfer_check(rec, spec)
    if abs(rep.w_spectral_radius - 2.0) > 1e-9 or rep.v_spectral_radius > 1e-6:
        failures.append(("converse example", rep.w_spectral_radius, rep.v_spectral_radius))
    record(10, "stability transfer", not failures, str(failures[:3]))


def test_criterion_11_analytic_jacobian():
    rng = np.random.default_rng(19)
    worst = 0.0
    for i in range(100):
        spec = random_stochastic(1 + i % 3, 1 + (i // 3) % 3, 5000 + i)
        z = Element(rng.uniform(0.1, 2.0, spec.n), rng.uniform(0.1, 2.0, spec.nu))
        J = jacobian_W(z, spec)
        h = 1e-6
        fd = np.zeros_like(J)
        base = z.vector
        for j in range(spec.dim):
            plus, minus = base.copy(), base.copy()
            plus[j] += h
            minus[j] -= h
            fd[:, j] = (
                apply_W(Element.from_vector(plus, spec.n), spec).vector
                - apply_W(Element.from_vector(minus, spec.n), spec).vector
            ) / (2 * h)
        rel = float(np.abs(J - fd).max() / max(1.0, np.abs(J).max()))
        worst = max(worst, rel)
    record(11, "analytic Jacobian vs finite differences", worst < 1e-5, f"worst {worst:.2e}")
