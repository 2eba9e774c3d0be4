"""The precomputed contraction kernel against the per-tensor einsum formulas.

The einsum references below are the formulas the package used before the
kernel existed; ``reference_iterate`` is the original Element-by-Element
iteration loop built on them, with the cycle rule of CYCLE_MIN_STEP_FACTOR.
"""

import numpy as np
import pytest

from gonosim import Element, IterationOptions, apply_V, apply_W, iterate, multiply, omega
from gonosim.algebra import AlgebraSpec, random_stochastic
from gonosim.dynamics import CYCLE_MIN_STEP_FACTOR, UNDERFLOW_OMEGA, Outcome
from gonosim.errors import AbsorbedToO, NotStochastic, ShapeMismatch
from gonosim.fixed_points import jacobian_W
from gonosim.scenarios import Scenario, build_algebra

TYPES = ((1, 1), (2, 1), (2, 2), (8, 8), (32, 32))
# summation order differs from einsum's; a few ulps of the result scale
RTOL = 1e-13
ATOL = 1e-14


def ref_multiply(a, b, spec):
    c = np.outer(a.x, b.y) + np.outer(b.x, a.y)
    return Element(
        np.einsum("ip,ipk->k", c, spec.gamma),
        np.einsum("ip,ipr->r", c, spec.gamma_tilde),
    )


def ref_apply_W(z, spec):
    c = np.outer(z.x, z.y)
    return Element(
        np.einsum("ip,ipk->k", c, spec.gamma),
        np.einsum("ip,ipr->r", c, spec.gamma_tilde),
    )


def ref_apply_V(z, spec):
    w = ref_apply_W(z, spec)
    total = omega(w)
    if total == 0.0:
        raise AbsorbedToO()
    return Element(w.x / total, w.y / total)


def ref_jacobian_W(z, spec):
    n, nu = spec.n, spec.nu
    J = np.zeros((n + nu, n + nu))
    J[:n, :n] = np.einsum("ijk,j->ki", spec.gamma, z.y)
    J[:n, n:] = np.einsum("ijk,i->kj", spec.gamma, z.x)
    J[n:, :n] = np.einsum("ijr,j->ri", spec.gamma_tilde, z.y)
    J[n:, n:] = np.einsum("ijr,i->rj", spec.gamma_tilde, z.x)
    return J


def reference_iterate(z0, spec, operator="W", opts=None):
    """The per-Element iteration loop, one apply call and list append per step."""
    opts = opts or IterationOptions()
    if operator == "V" and not spec.is_stochastic():
        raise NotStochastic("normalized operator requires a stochastic algebra")
    step = ref_apply_W if operator == "W" else ref_apply_V
    states = [z0]
    outcome = None
    quiet = 0
    for t in range(1, opts.max_steps + 1):
        try:
            z = step(states[-1], spec)
        except AbsorbedToO:
            outcome = Outcome("absorbed", step=t - 1)
            break
        states.append(z)
        om = omega(z)
        if np.all(z.vector == 0.0):
            outcome = Outcome("extinct", step=t)
            break
        if abs(om) < UNDERFLOW_OMEGA and np.all(np.abs(z.vector) < UNDERFLOW_OMEGA):
            outcome = Outcome("numerically_extinct", step=t)
            break
        if operator == "W" and (np.all(z.x == 0.0) or np.all(z.y == 0.0)):
            continue
        diff = float(np.abs(z.vector - states[-2].vector).sum())
        quiet = quiet + 1 if diff < opts.conv_tol else 0
        if quiet >= opts.patience:
            outcome = Outcome("converged", step=t, point=z)
            break
        cycle_found = False
        moving = diff >= CYCLE_MIN_STEP_FACTOR * opts.conv_tol
        for gap in range(2, min(opts.max_period, t) + 1) if moving else ():
            ref = states[-1 - gap]
            if float(np.abs(z.vector - ref.vector).sum()) < opts.conv_tol:
                outcome = Outcome("cycle", step=t, period=gap, representatives=tuple(states[-gap:]))
                cycle_found = True
                break
        if cycle_found:
            break
        if float(np.abs(z.vector).sum()) > opts.div_threshold:
            outcome = Outcome("divergent", step=t)
            break
    if outcome is None:
        outcome = Outcome("max_iterations", step=len(states) - 1)
    return states, outcome


def random_element(spec, rng):
    return Element(rng.uniform(-1, 1, spec.n), rng.uniform(-1, 1, spec.nu))


def assert_close(a, b):
    np.testing.assert_allclose(a, b, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("n,nu", TYPES)
class TestKernelMatchesEinsum:
    def test_multiply(self, n, nu):
        rng = np.random.default_rng(n * 100 + nu)
        for seed in range(5):
            spec = random_stochastic(n, nu, seed)
            a, b = random_element(spec, rng), random_element(spec, rng)
            assert_close(multiply(a, b, spec).vector, ref_multiply(a, b, spec).vector)

    def test_apply_W_and_V(self, n, nu):
        rng = np.random.default_rng(n * 100 + nu + 1)
        for seed in range(5):
            spec = random_stochastic(n, nu, seed)
            z = Element.from_vector(rng.dirichlet(np.ones(spec.dim)) * 7.0, n)
            assert_close(apply_W(z, spec).vector, ref_apply_W(z, spec).vector)
            assert_close(apply_V(z, spec).vector, ref_apply_V(z, spec).vector)

    def test_jacobian_W(self, n, nu):
        rng = np.random.default_rng(n * 100 + nu + 2)
        for seed in range(5):
            spec = random_stochastic(n, nu, seed)
            z = random_element(spec, rng)
            assert_close(jacobian_W(z, spec), ref_jacobian_W(z, spec))

    def test_non_stochastic_algebra(self, n, nu):
        rng = np.random.default_rng(n * 100 + nu + 3)
        spec = AlgebraSpec(n, nu, rng.normal(size=(n, nu, n)), rng.normal(size=(n, nu, nu)))
        a, b = random_element(spec, rng), random_element(spec, rng)
        assert_close(multiply(a, b, spec).vector, ref_multiply(a, b, spec).vector)
        assert_close(apply_W(a, spec).vector, ref_apply_W(a, spec).vector)
        assert_close(jacobian_W(a, spec), ref_jacobian_W(a, spec))


class TestKernelBuffer:
    def test_views_share_the_kernel(self):
        spec = random_stochastic(3, 2, 7)
        assert spec.kernel.shape == (6, 5)
        for view in (spec.gamma, spec.gamma_tilde, spec.kernel):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[(0,) * view.ndim] = 1.0
        assert np.shares_memory(spec.gamma, spec.kernel)
        assert np.shares_memory(spec.gamma_tilde, spec.kernel)
        assert np.array_equal(spec.kernel.reshape(3, 2, 5)[:, :, :3], spec.gamma)
        assert np.array_equal(spec.kernel.reshape(3, 2, 5)[:, :, 3:], spec.gamma_tilde)

    def test_caller_arrays_are_copied(self):
        g = np.full((1, 1, 1), 0.5)
        gt = np.full((1, 1, 1), 0.5)
        spec = AlgebraSpec(1, 1, g, gt)
        g[0, 0, 0] = 0.9  # the caller keeps a writable array of its own
        assert spec.gamma[0, 0, 0] == 0.5
        assert not np.shares_memory(g, spec.kernel)

    def test_stochastic_flag(self):
        assert random_stochastic(2, 2, 1).is_stochastic()
        assert not AlgebraSpec(1, 1, [[[1.5]]], [[[-0.5]]]).is_stochastic()
        assert not AlgebraSpec(1, 1, [[[np.nan]]], [[[0.5]]]).is_stochastic()
        assert not AlgebraSpec(1, 1, [[[np.inf]]], [[[0.5]]]).is_stochastic()

    def test_finite_flag(self):
        assert AlgebraSpec(1, 1, [[[1.5]]], [[[-0.5]]]).is_finite()
        assert not AlgebraSpec(1, 1, [[[np.nan]]], [[[0.5]]]).is_finite()
        assert not AlgebraSpec(1, 1, [[[0.5]]], [[[-np.inf]]]).is_finite()

    def test_shape_checks_before_the_buffer(self):
        with pytest.raises(ShapeMismatch):
            AlgebraSpec(2, 1, np.zeros((2, 1, 2)), np.zeros((2, 2, 1)))
        with pytest.raises(ShapeMismatch):
            AlgebraSpec(1, 1, np.zeros((1, 1)), np.zeros((1, 1, 1)))


def _orbit_cases():
    """Random W and V orbits on random algebras plus the scenario edge cases."""
    rng = np.random.default_rng(2024)
    cases = []
    for n, nu, count in ((1, 1, 20), (2, 1, 20), (1, 2, 20), (2, 2, 20), (3, 3, 20), (8, 8, 20),
                         (32, 32, 4)):
        for j in range(count):
            spec = random_stochastic(n, nu, 1000 * n + 10 * nu + j)
            v = rng.dirichlet(np.ones(spec.dim))
            cases.append((spec, v, "V", None))
            cases.append((spec, v * rng.uniform(0.5, 40.0), "W", None))
    for g2, d1 in ((0.3, 0.4), (0.5, 0.7), (0.7, 0.3)):
        spec = build_algebra(Scenario(
            "recessive_lethal", {"gamma1": 0.0, "gamma2": g2, "delta1": d1, "delta2": 0.0}))
        for _ in range(4):
            a, s = rng.uniform(0.2, 0.8), rng.uniform(0.5, 3.0)
            cases.append((spec, np.array([0.0, a, 1.0 - a]), "V", None))
            cases.append((spec, np.array([s, 0.0, s]), "W", None))
    for eta in (1.0, 0.3):
        spec = build_algebra(Scenario("hemophilia", {"mu": 1.0, "eta": eta}))
        for _ in range(4):
            v = rng.dirichlet(np.ones(4))
            cases.append((spec, v * 10.0, "W", None))
            cases.append((spec, v, "V", None))
    spec = random_stochastic(2, 2, 5)
    cases.append((spec, np.array([0.5, 0.5, 0.0, 0.0]), "V", None))  # absorbed
    cases.append((spec, np.array([0.5, 0.5, 0.0, 0.0]), "W", None))  # extinct at 1
    cases.append((spec, np.full(4, 0.25), "V", IterationOptions(max_steps=3)))
    cases.append((spec, np.full(4, 0.25), "W", IterationOptions(max_steps=0)))
    cases.append((spec, np.full(4, 1e-160), "W", None))  # underflow
    return cases


ORBIT_CASES = _orbit_cases()


def test_orbit_case_count():
    assert len(ORBIT_CASES) >= 200


@pytest.mark.parametrize("case", range(len(ORBIT_CASES)))
def test_iterate_matches_reference_loop(case):
    spec, v0, op, opts = ORBIT_CASES[case]
    z0 = Element.from_vector(v0, spec.n)
    traj = iterate(z0, spec, op, opts)
    ref_states, ref = reference_iterate(z0, spec, op, opts)
    out = traj.outcome
    assert (out.kind, out.step, out.period) == (ref.kind, ref.step, ref.period)
    assert len(traj.states) == len(ref_states)
    assert traj.states[0] is z0
    for s, r in zip(traj.states, ref_states):
        np.testing.assert_allclose(s.vector, r.vector, rtol=1e-9, atol=1e-300)
    assert traj.omegas == [omega(s) for s in traj.states]
    if out.kind == "converged":
        assert out.point is traj.states[-1]
    if out.kind == "cycle":
        assert out.representatives == tuple(traj.states[-out.period:])


def test_iterate_states_are_read_only():
    spec = random_stochastic(2, 2, 3)
    traj = iterate(Element.from_vector(np.full(4, 0.25), 2), spec, "V")
    with pytest.raises(ValueError):
        traj.states[-1].x[0] = 1.0


def test_iterate_checks_before_the_loop():
    spec = random_stochastic(2, 2, 3)
    with pytest.raises(ShapeMismatch):
        iterate(Element.from_vector(np.full(3, 0.25), 2), spec, "W")
    bad = AlgebraSpec(1, 1, [[[1.5]]], [[[-0.5]]])
    with pytest.raises(NotStochastic):
        iterate(Element.from_vector([0.5, 0.5], 1), bad, "V")
    nan = AlgebraSpec(1, 1, [[[np.nan]]], [[[0.5]]])
    for operator in ("W", "V"):
        with pytest.raises(ValueError, match="non-finite structure constant"):
            iterate(Element.from_vector([1.0, 1.0], 1), nan, operator)
