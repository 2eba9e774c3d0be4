"""The bound verifiers against their per-step references.

verify_omega_bounds and verify_coordinate_bounds take the orbit from the
stepper iterate uses; the references below are the verifiers as they were
before, stepping through apply_W / apply_V one Element at a time.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from gonosim import Element, apply_V, apply_W, iterate, omega, random_stochastic
from gonosim.algebra import AlgebraSpec
from gonosim.dynamics import (
    UNDERFLOW_OMEGA,
    BoundReport,
    verify_coordinate_bounds,
    verify_omega_bounds,
)
from gonosim.errors import AbsorbedToO, NotStochastic
from gonosim.scenarios import Scenario, build_algebra


def _log_or_none(v: float):
    # subnormal values have lost mantissa bits; treat them as underflowed zero
    return np.log(v) if v > UNDERFLOW_OMEGA else None


def reference_verify_omega_bounds(z0, spec, t_max):
    """The per-step mass-bound verifier: one apply_W call and Element a step."""
    if not spec.is_stochastic():
        raise NotStochastic("omega bounds require a stochastic algebra")
    g = spec.female_row_sums()
    gt = spec.male_row_sums()
    min_sqrt = float(np.sqrt(g * gt).min())
    max_cross = float(np.outer(g.ravel(), gt.ravel()).max())

    traj = [z0]
    for _ in range(t_max):
        traj.append(apply_W(traj[-1], spec))
    oms = [omega(z) for z in traj]

    slack = 1e-9
    report = BoundReport(all_pass=True, checked_steps=t_max)

    def fail(t, which, lhs, rhs):
        report.all_pass = False
        if report.first_violation is None:
            report.first_violation = {"t": t, "bound": which, "lhs": lhs, "rhs": rhs}

    def check_lower(t, which, log_lb):
        """log_lb None means a zero lower bound: trivially satisfied."""
        if log_lb is None:
            return
        log_om = _log_or_none(oms[t])
        if log_om is None:
            if log_lb > np.log(1e-290):
                fail(t, which, 0.0, float(np.exp(min(log_lb, 700.0))))
        elif log_om < log_lb - slack:
            fail(t, which, oms[t], float(np.exp(min(log_lb, 700.0))))

    def check_upper(t, which, log_ub):
        """log_ub None means a zero upper bound: omega must be zero too."""
        log_om = _log_or_none(oms[t])
        if log_om is None:
            return
        if log_ub is None:
            fail(t, which, oms[t], 0.0)
        elif log_om > log_ub + slack:
            fail(t, which, oms[t], float(np.exp(min(log_ub, 700.0))))

    def combine(log_base, exponent, log_anchor, anchor_exp):
        if log_base is None or log_anchor is None:
            # a zero factor with positive exponent collapses the bound to zero
            if (log_base is None and exponent > 0) or (log_anchor is None and anchor_exp > 0):
                return None
            return (log_base or 0.0) * exponent + (log_anchor or 0.0) * anchor_exp
        return log_base * exponent + log_anchor * anchor_exp

    monotone = oms[0] <= 4.0 + 1e-12
    log_m = _log_or_none(min_sqrt)
    log_M = _log_or_none(max_cross)
    log_M16 = _log_or_none(max_cross / 16.0)
    log_om0 = _log_or_none(oms[0])
    log_om1 = _log_or_none(oms[1]) if t_max >= 1 else None

    for t in range(t_max + 1):
        if monotone and t >= 1 and oms[t] > oms[t - 1] * (1 + slack) + 1e-15:
            fail(t, "monotone_decrease", oms[t], oms[t - 1])

        if t >= 2:
            prev = _log_or_none(oms[t - 1])
            check_lower(t, "step_lower", combine(log_m, 2.0, prev, 2.0))
            check_upper(t, "step_upper", combine(log_M, 1.0, prev, 2.0))

        if t >= 1:
            e = 2.0 ** (t - 1)
            check_lower(t, "lower", combine(log_m, 2.0 * (e - 1.0), log_om1, e))
            check_upper(t, "upper", combine(log_M, e - 1.0, log_om1, e))

        half = t // 2
        four_h = 4.0**half
        ref_exp = (four_h - 1.0) / 3.0
        if t >= 2 and t % 2 == 0:
            check_upper(t, "refined_upper_even", combine(log_M16, ref_exp, log_om0, four_h))
        elif t >= 1 and t % 2 == 1:
            check_upper(t, "refined_upper_odd", combine(log_M16, ref_exp, log_om1, four_h))
    return report


def reference_verify_coordinate_bounds(z0, spec, t_max):
    """The per-step envelope verifier: one apply_V call and Element a step."""
    if not spec.is_stochastic():
        raise NotStochastic("coordinate bounds require a stochastic algebra")
    x_lo = spec.gamma.min(axis=(0, 1))
    x_hi = spec.gamma.max(axis=(0, 1))
    y_lo = spec.gamma_tilde.min(axis=(0, 1))
    y_hi = spec.gamma_tilde.max(axis=(0, 1))

    tol = 1e-12
    report = BoundReport(all_pass=True, checked_steps=t_max)
    z = z0
    for t in range(1, t_max + 1):
        z = apply_V(z, spec)  # raises AbsorbedToO if the orbit hits the boundary set
        ok = (
            np.all(z.x >= x_lo - tol)
            and np.all(z.x <= x_hi + tol)
            and np.all(z.y >= y_lo - tol)
            and np.all(z.y <= y_hi + tol)
        )
        if not ok:
            report.all_pass = False
            if report.first_violation is None:
                report.first_violation = {"t": t, "bound": "coordinate", "state": z.vector.tolist()}
    return report


TYPES = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (8, 8), (32, 32))


def bound_cases():
    """Stochastic algebras with and without unit row sums, from several starts.

    Rows scaled away from sum 1 and starts with a negative coordinate make
    the envelopes fail, so the first violations are compared too.
    """
    rng = np.random.default_rng(77)
    cases = []
    for n, nu in TYPES:
        for j in range(6):
            spec = random_stochastic(n, nu, 40 * n + nu + j)
            if j % 2:
                K = spec.kernel.reshape(n, nu, n + nu) * rng.uniform(0.3, 3.0, (n, nu, 1))
                spec = AlgebraSpec(n, nu, K[:, :, :n], K[:, :, n:])
            v = rng.dirichlet(np.ones(spec.dim))
            for mass in (rng.uniform(0.5, 3.9), rng.uniform(4.1, 40.0)):
                cases.append((spec, v * mass))
            w = v.copy()
            w[rng.integers(spec.dim)] -= 0.5
            cases.append((spec, w * rng.uniform(0.5, 40.0)))
    return cases


BOUND_CASES = bound_cases()


@pytest.mark.parametrize("case", range(len(BOUND_CASES)))
def test_verifiers_match_reference(case):
    spec, v = BOUND_CASES[case]
    z0 = Element.from_vector(v, spec.n)
    for t_max in (0, 1, 6, 9):
        with np.errstate(over="ignore", invalid="ignore"):
            got = verify_omega_bounds(z0, spec, t_max)
            ref = reference_verify_omega_bounds(z0, spec, t_max)
        assert (got.all_pass, got.first_violation) == (ref.all_pass, ref.first_violation)
        assert got.checked_steps == ref.checked_steps
        got = verify_coordinate_bounds(z0, spec, t_max)
        ref = reference_verify_coordinate_bounds(z0, spec, t_max)
        assert (got.all_pass, got.first_violation) == (ref.all_pass, ref.first_violation)
        assert got.checked_steps == ref.checked_steps


def test_cases_include_violations():
    omega_fail = coord_fail = 0
    for spec, v in BOUND_CASES:
        z0 = Element.from_vector(v, spec.n)
        with np.errstate(over="ignore", invalid="ignore"):
            omega_fail += not verify_omega_bounds(z0, spec, 6).all_pass
        coord_fail += not verify_coordinate_bounds(z0, spec, 6).all_pass
    assert omega_fail >= 10 and coord_fail >= 10


@pytest.mark.parametrize("t_max", (1, 2, 6))
def test_absorbing_start_raises(t_max):
    spec = random_stochastic(2, 2, 5)
    for v in ([0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.3, 0.7]):
        z0 = Element.from_vector(v, 2)
        with pytest.raises(AbsorbedToO):
            reference_verify_coordinate_bounds(z0, spec, t_max)
        with pytest.raises(AbsorbedToO):
            verify_coordinate_bounds(z0, spec, t_max)
    # no step, no absorption
    assert verify_coordinate_bounds(z0, spec, 0).all_pass


def test_coordinate_bounds_need_stochastic():
    bad = AlgebraSpec(1, 1, [[[1.5]]], [[[-0.5]]])
    with pytest.raises(NotStochastic):
        verify_coordinate_bounds(Element.from_vector([0.5, 0.5], 1), bad, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("verifier", [verify_omega_bounds, verify_coordinate_bounds])
def test_non_finite_start_is_rejected_before_any_step(verifier, bad):
    # a NaN start used to pass the omega bounds (every comparison with NaN is
    # false) and fail the coordinate bounds at t = 1, as iterate rejects it
    spec = random_stochastic(1, 1, 0)
    with pytest.raises(ValueError, match="non-finite"):
        verifier(Element.from_vector([bad, 0.5], 1), spec, 5)


def test_omega_bounds_allocate_little_at_32_32():
    # M comes from the row-sum extremes, not a 1024 x 1024 outer product (8 MB)
    spec = random_stochastic(32, 32, 1)
    z0 = Element.from_vector(np.full(64, 1.0 / 64), 32)
    verify_omega_bounds(z0, spec, 6)
    tracemalloc.start()
    try:
        verify_omega_bounds(z0, spec, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


@pytest.mark.parametrize("t_max", (-3, -1, 1024))
def test_omega_bounds_reject_a_step_count_they_cannot_check(t_max):
    # from t = 1024 on, the exponent 4^floor(t/2) is no longer a finite float
    spec = random_stochastic(2, 2, 0)
    with pytest.raises(ValueError, match="t_max"):
        verify_omega_bounds(Element.from_vector([0.3, 0.2, 0.1, 0.4], 2), spec, t_max)


def test_omega_bounds_check_the_last_finite_step():
    spec = random_stochastic(2, 2, 0)
    report = verify_omega_bounds(Element.from_vector([0.3, 0.2, 0.1, 0.4], 2), spec, 1023)
    assert report.all_pass and report.checked_steps == 1023


def test_coordinate_bounds_reject_a_negative_step_count():
    spec = random_stochastic(2, 2, 0)
    with pytest.raises(ValueError, match="t_max"):
        verify_coordinate_bounds(Element.from_vector([0.3, 0.2, 0.1, 0.4], 2), spec, -3)


def test_overflowing_orbit_does_not_warn():
    # the orbit overflows to inf at t = 10, which the one-step squeeze reports
    spec = random_stochastic(2, 2, 0)
    z0 = Element.from_vector([3, 2, 1, 4], 2)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = reference_verify_omega_bounds(z0, spec, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = verify_omega_bounds(z0, spec, 60)
        verify_coordinate_bounds(z0, spec, 60)
    assert (got.all_pass, got.first_violation) == (ref.all_pass, ref.first_violation)
    assert got.first_violation["t"] == 10 and got.first_violation["bound"] == "step_upper"
    assert got.first_violation["lhs"] == np.inf


def _signed_start(spec):
    """A state whose female coordinates nearly cancel: with two or more
    females, V scales them far outside the coordinate envelopes."""
    v = np.random.default_rng(3).dirichlet(np.ones(spec.dim))
    v[0] = 0.01 - v[1 : spec.n].sum()
    return Element.from_vector(v, spec.n)


@pytest.mark.parametrize("n, nu", [(2, 1), (2, 2), (8, 8), (32, 32)])
def test_bound_reports_equal_on_the_first_call_and_later(n, nu):
    # the first call on a fresh spec builds the constants, the later ones read them
    z_big = Element.from_vector(np.full(n + nu, 3.0), n)  # overflows: a step_upper violation
    z_signed = _signed_start(random_stochastic(n, nu, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        omega_ref = reference_verify_omega_bounds(z_big, random_stochastic(n, nu, 4), 60)
        coord_ref = reference_verify_coordinate_bounds(z_signed, random_stochastic(n, nu, 4), 6)
    assert not omega_ref.all_pass and not coord_ref.all_pass
    for verify, z, t_max, ref in (
        (verify_omega_bounds, z_big, 60, omega_ref),
        (verify_coordinate_bounds, z_signed, 6, coord_ref),
    ):
        spec = random_stochastic(n, nu, 4)
        reports = [verify(z, spec, t_max) for _ in range(3)]
        reports.append(verify(Element.from_vector(np.full(n + nu, 0.5 / (n + nu)), n), spec, t_max))
        for got in reports[:3]:
            assert (got.all_pass, got.first_violation, got.checked_steps) == (
                ref.all_pass,
                ref.first_violation,
                ref.checked_steps,
            )
        assert reports[3].all_pass


def test_bound_constants_are_read_only():
    spec = random_stochastic(3, 2, 5)
    verify_coordinate_bounds(Element.from_vector(np.full(5, 0.2), 3), spec, 2)
    min_sqrt, max_cross, col_min, col_max = spec._bound_constants
    assert isinstance(min_sqrt, float) and isinstance(max_cross, float)
    for col in (col_min, col_max):
        assert not col.flags.writeable
        with pytest.raises(ValueError):
            col[0] = 0.0
    assert spec._bound_constants[2] is col_min  # built once per spec


def test_building_or_saving_a_spec_computes_no_bound_constants(tmp_path):
    specs = [
        random_stochastic(2, 2, 0),
        AlgebraSpec(1, 1, [[[0.5]]], [[[0.5]]]),
        build_algebra(Scenario("hemophilia", {"mu": 0.4, "eta": 1.0})),
    ]
    specs[0].save(tmp_path / "a.json")
    specs.append(AlgebraSpec.load(tmp_path / "a.json"))
    for spec in specs:
        z = Element.from_vector(np.full(spec.dim, 1.0 / spec.dim), spec.n)
        iterate(z, spec, "V")
        iterate(z, spec, "W")
        assert "_bound_constants" not in vars(spec)
        verify_omega_bounds(z, spec, 3)
        assert "_bound_constants" in vars(spec)
