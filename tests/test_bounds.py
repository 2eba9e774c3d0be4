"""The bound verifiers against their per-step references.

verify_omega_bounds and verify_coordinate_bounds take the orbit from the
stepper iterate uses; the references below are the verifiers as they were
before, stepping through apply_W / apply_V one Element at a time.
"""

import tracemalloc

import numpy as np
import pytest

from gonosim import Element, apply_V, apply_W, omega, random_stochastic
from gonosim.algebra import AlgebraSpec
from gonosim.dynamics import (
    BoundReport,
    _log_or_none,
    verify_coordinate_bounds,
    verify_omega_bounds,
)
from gonosim.errors import AbsorbedToO, NotStochastic


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
