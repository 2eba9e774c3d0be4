"""The precomputed contraction kernel against the per-tensor einsum formulas.

The einsum references below are the formulas the package used before the
kernel existed.  ``reference_iterate`` is the one step-by-step classifier
of the tests: a plain Element-by-Element loop over a W step it is given,
with the outcome precedence of iterate.  On the einsum oracle it checks the
kernel's orbits; given the package's apply_W (its default) the loop does
the arithmetic iterate does, so the block-edge tests at the end and the
property tests require equal bits.
"""

import warnings

import numpy as np
import pytest

from gonosim import Element, IterationOptions, apply_V, apply_W, iterate, multiply, omega, support_orbit
from gonosim.algebra import AlgebraSpec, random_stochastic
from gonosim.dynamics import CYCLE_MIN_STEP_FACTOR, UNDERFLOW_OMEGA, Outcome
from gonosim.errors import AbsorbedToO, NotStochastic, ShapeMismatch
from gonosim.fixed_points import _op_rows, jacobian_W
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


def reference_iterate(z0, spec, operator="W", opts=None, apply_w=apply_W):
    """iterate as a plain loop: one apply_w call a step (V divides its image
    by the image's coordinate sum), then the outcome precedence on that
    step, with the full L1 distance to each of the states 2..max_period
    back.  Returns the states and the Outcome, final_step_l1 included.

    With the package's apply_W the arithmetic is the one iterate does, so
    the states must agree bit for bit; with ref_apply_W the einsum oracle
    drives the orbit.
    """
    opts = opts or IterationOptions()
    if operator == "V" and not spec.is_stochastic():
        raise NotStochastic("normalized operator requires a stochastic algebra")
    states = [z0]
    quiet, kind, period, final_l1 = 0, None, None, None
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, opts.max_steps + 1):
            z = apply_w(states[-1], spec)
            if operator == "V":
                total = omega(z)
                if total == 0.0:
                    kind = "absorbed"
                    break
                z = Element.from_vector(z.vector / total, spec.n)
            states.append(z)
            v = z.vector
            final_l1 = float(np.abs(v - states[-2].vector).sum())
            l1 = float(np.abs(v).sum())
            if l1 == 0.0:
                kind = "extinct"
            elif np.abs(v).max() < UNDERFLOW_OMEGA and abs(v.sum()) < UNDERFLOW_OMEGA:
                kind = "numerically_extinct"
            elif operator == "W" and not (z.x.any() and z.y.any()):
                continue
            else:
                quiet = quiet + 1 if final_l1 < opts.conv_tol else 0
                returns = [
                    g
                    for g in range(2, opts.max_period + 1)
                    if g <= t and np.abs(states[t - g].vector - v).sum() < opts.conv_tol
                ]
                if quiet >= opts.patience:
                    kind = "converged"
                elif final_l1 >= CYCLE_MIN_STEP_FACTOR * opts.conv_tol and returns:
                    kind, period = "cycle", returns[0]
                elif not l1 <= opts.div_threshold:
                    kind = "divergent"
            if kind:
                break
    outcome = Outcome(
        kind or "max_iterations",
        step=len(states) - 1,
        point=states[-1] if kind == "converged" else None,
        period=period,
        representatives=tuple(states[-period:]) if period else (),
        final_step_l1=final_l1,
    )
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

    def test_jacobian_W_rows_from_the_second_derivative(self, n, nu):
        # J_W(z) = (z @ M).reshape(dim, dim).T, for a stack and row by row
        rng = np.random.default_rng(n * 100 + nu + 4)
        spec = random_stochastic(n, nu, 0)
        Z = np.array([random_element(spec, rng).vector for _ in range(3)])
        assert spec._structure_tensor.shape == (spec.dim, spec.dim, spec.dim)
        for rowwise in (False, True):
            for z, J in zip(Z, _op_rows(Z, spec, "W", True, rowwise)[1]):
                assert_close(J, ref_jacobian_W(Element.from_vector(z, n), spec))

    def test_non_stochastic_algebra(self, n, nu):
        rng = np.random.default_rng(n * 100 + nu + 3)
        spec = AlgebraSpec(n, nu, rng.normal(size=(n, nu, n)), rng.normal(size=(n, nu, nu)))
        a, b = random_element(spec, rng), random_element(spec, rng)
        assert_close(multiply(a, b, spec).vector, ref_multiply(a, b, spec).vector)
        assert_close(apply_W(a, spec).vector, ref_apply_W(a, spec).vector)
        assert_close(jacobian_W(a, spec), ref_jacobian_W(a, spec))


@pytest.mark.parametrize("n,nu", TYPES)
class TestRowContractions:
    """AlgebraSpec._w_rows and _left_rows on stacks of any leading shape and dtype."""

    def test_stack_gives_the_per_row_results(self, n, nu):
        rng = np.random.default_rng(n * 100 + nu + 5)
        spec = random_stochastic(n, nu, 1)
        S = rng.uniform(-1, 1, (2, 3, spec.dim))
        for rowwise in (False, True):
            W, L = spec._w_rows(S, rowwise), spec._left_rows(S, rowwise)
            assert W.shape == S.shape and L.shape == (2, 3, spec.dim, spec.dim)
            for b, j in np.ndindex(2, 3):
                z = Element.from_vector(S[b, j], n)
                assert_close(W[b, j], ref_apply_W(z, spec).vector)
                assert_close(L[b, j], ref_jacobian_W(z, spec).T)
        # without rows: the basis, L_(e_a)[b] = e_a e_b
        assert np.array_equal(spec._left_rows(), spec._left_rows(np.eye(spec.dim)))

    def test_rowwise_rows_have_the_bits_of_one_row_calls(self, n, nu):
        rng = np.random.default_rng(n * 100 + nu + 6)
        spec = random_stochastic(n, nu, 2)
        S = rng.uniform(-1, 1, (2, 3, spec.dim))
        for rows in (spec._w_rows, spec._left_rows):
            R = rows(S, rowwise=True)
            for b, j in np.ndindex(2, 3):
                assert np.array_equal(R[b, j], rows(S[b, j, None])[0])

    def test_complex_rows(self, n, nu):
        # W(a + ib) = W(a) - W(b) + i ab, and L is linear: L_(a+ib) = L_a + i L_b
        rng = np.random.default_rng(n * 100 + nu + 7)
        spec = random_stochastic(n, nu, 3)
        a, b = random_element(spec, rng), random_element(spec, rng)
        Z = (a.vector + 1j * b.vector)[None]
        want = apply_W(a, spec).vector - apply_W(b, spec).vector + 1j * multiply(a, b, spec).vector
        assert_close(spec._w_rows(Z)[0], want)
        assert_close(spec._left_rows(Z)[0], ref_jacobian_W(a, spec).T + 1j * ref_jacobian_W(b, spec).T)


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

    def test_structure_tensor_is_built_once_on_first_use(self):
        # not with the spec: a (32,32) tensor holds 2.1 MB
        spec = random_stochastic(3, 2, 7)
        assert "_structure_tensor" not in vars(spec)
        M = spec._structure_tensor
        assert spec._structure_tensor is M and vars(spec)["_structure_tensor"] is M
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 3, 0] = 1.0
        K = spec.kernel.reshape(3, 2, 5)
        assert np.array_equal(M[:3, 3:], K) and np.array_equal(M[3:, :3], K.transpose(1, 0, 2))
        assert not M[:3, :3].any() and not M[3:, 3:].any()

    def test_zero_pattern_is_built_once_on_first_use(self):
        # a support orbit walks the pattern; building the spec does not make it
        g = np.array([[[0.5, 0.0]], [[0.0, 0.0]]])
        spec = AlgebraSpec(2, 1, g, [[[0.5]], [[-1e-17]]])
        assert "_pattern" not in vars(spec)
        assert support_orbit(spec, Element.from_vector([1.0, 1.0, 1.0], 2)) == (
            [(True, True, True), (True, False, True)], 1)
        P = vars(spec)["_pattern"]
        assert P == ((True, False, True), (False, False, True)) and spec._pattern is P
        assert isinstance(P, tuple) and all(isinstance(row, tuple) for row in P)

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
    ref_states, ref = reference_iterate(z0, spec, op, opts, apply_w=ref_apply_W)
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


# ---------------------------------------------------------------------------
# Block edges.  iterate steps and classifies the orbit eight steps at a time;
# steps 7, 8 and 9 and 16 and 17 sit around the ends of its first two blocks.
# Each case runs reference_iterate with the package's own apply_W, so the
# states and omegas must be equal, not just close.

EDGES = (7, 8, 9, 16, 17)


def assert_matches_reference(z0, spec, operator, opts=None):
    """Compare iterate with the per-step loop; returns the reference outcome."""
    traj = iterate(z0, spec, operator, opts)
    ref_states, ref = reference_iterate(z0, spec, operator, opts)
    out = traj.outcome
    assert (out.kind, out.step, out.period) == (ref.kind, ref.step, ref.period)
    assert len(traj.states) == len(ref_states)
    for s, r in zip(traj.states, ref_states):
        assert np.array_equal(s.vector, r.vector)
    assert traj.omegas == [omega(r) for r in ref_states]
    assert out.final_step_l1 == ref.final_step_l1
    if out.kind == "converged":
        assert np.array_equal(out.point.vector, ref.point.vector)
    if out.kind == "cycle":
        assert all(np.array_equal(a.vector, b.vector)
                   for a, b in zip(out.representatives, ref.representatives))
    return ref


def shift_spec(k, wrap):
    """Type (k, 1) with e_i m = (e_{i+1} + m) / 2 for i < k.

    The last female gives m alone, or (e_1 + m) / 2 with wrap.  From one
    female and the male, V moves the female one place a step and W does
    the same at mass 2 per sex, all in exact arithmetic.
    """
    g = np.zeros((k, 1, k))
    gt = np.zeros((k, 1, 1))
    for i in range(k):
        if i + 1 < k or wrap:
            g[i, 0, (i + 1) % k] = 0.5
            gt[i, 0, 0] = 0.5
        else:
            gt[i, 0, 0] = 1.0
    return AlgebraSpec(k, 1, g, gt)


def first_female(spec, x, y):
    v = np.zeros(spec.dim)
    v[0], v[-1] = x, y
    return Element.from_vector(v, spec.n)


HALF = AlgebraSpec(1, 1, [[[0.5]]], [[[0.5]]])  # W squares u = x = y to u^2 / 2


@pytest.mark.parametrize("step", EDGES)
def test_block_edge_extinct(step):
    # females die out at step - 1, so step is the first all-zero state
    spec = shift_spec(step - 1, wrap=False)
    ref = assert_matches_reference(first_female(spec, 2.0, 2.0), spec, "W")
    assert (ref.kind, ref.step) == ("extinct", step)


@pytest.mark.parametrize("step", EDGES)
def test_block_edge_absorbed(step):
    # V at `step` has no female, so the W image of step + 1 sums to zero:
    # steps 8 and 16 put that image on the first row of a block
    spec = shift_spec(step, wrap=False)
    ref = assert_matches_reference(first_female(spec, 0.5, 0.5), spec, "V")
    assert (ref.kind, ref.step) == ("absorbed", step)


def test_absorbed_on_the_first_step():
    # the W image of step 1, the first row of the first block, sums to zero
    spec = random_stochastic(2, 2, 5)
    ref = assert_matches_reference(Element.from_vector([0.5, 0.5, 0.0, 0.0], 2), spec, "V")
    assert (ref.kind, ref.step) == ("absorbed", 0)


@pytest.mark.parametrize("step", EDGES)
def test_block_edge_divergent(step):
    # u_t = 2 r^(2^t), so the L1 norm 2 u_t first exceeds 1e12 at t = step
    r = np.exp(1.5 * np.log(0.25e12) / 2.0**step)
    ref = assert_matches_reference(Element.from_vector([2 * r, 2 * r], 1), HALF, "W")
    assert (ref.kind, ref.step) == ("divergent", step)


@pytest.mark.parametrize("step", EDGES)
def test_block_edge_converged(step):
    # type (1,1) V is fixed from step 1 on, so the quiet run is steps 2..step
    spec = random_stochastic(1, 1, 3)
    opts = IterationOptions(patience=step - 1)
    ref = assert_matches_reference(Element.from_vector([0.2, 0.8], 1), spec, "V", opts)
    assert (ref.kind, ref.step) == ("converged", step)


@pytest.mark.parametrize("step", EDGES)
def test_block_edge_cycle(step):
    # W from the cycle returns to row 0 at `step`
    spec = shift_spec(step, wrap=True)
    opts = IterationOptions(max_period=step)
    ref = assert_matches_reference(first_female(spec, 2.0, 2.0), spec, "W", opts)
    assert (ref.kind, ref.step, ref.period) == ("cycle", step, step)
    # V from off the cycle joins it at step 1 and returns there at `step`;
    # at 9 and 17 the return is found on the first row of a block
    spec = shift_spec(step - 1, wrap=True)
    opts = IterationOptions(max_period=step - 1)
    ref = assert_matches_reference(first_female(spec, 0.3, 0.7), spec, "V", opts)
    assert (ref.kind, ref.step, ref.period) == ("cycle", step, step - 1)


def test_random_orbits_ending_at_block_edges():
    rng = np.random.default_rng(11)
    found = set()
    for seed in range(60):
        n, nu = ((2, 1), (2, 2), (3, 3), (8, 8))[seed % 4]
        spec = random_stochastic(n, nu, 500 + seed)
        v = rng.dirichlet(np.ones(spec.dim))
        for z0, op in ((v, "V"), (v * rng.uniform(1.0, 6.0), "W")):
            z0 = Element.from_vector(z0, n)
            ref = assert_matches_reference(z0, spec, op)
            found.add(ref.step)
    assert set(EDGES) <= found


@pytest.mark.parametrize("max_steps", (0, 1, 7, 8, 9, 500))
def test_max_steps_around_blocks(max_steps):
    opts = IterationOptions(max_steps=max_steps)
    # a period-16 cycle is longer than max_period, so this orbit never ends
    spec = shift_spec(16, wrap=True)
    ref = assert_matches_reference(first_female(spec, 2.0, 2.0), spec, "W", opts)
    assert (ref.kind, ref.step) == ("max_iterations", max_steps)
    spec = build_algebra(Scenario(
        "recessive_lethal", {"gamma1": 0.5, "gamma2": 0.02, "delta1": 0.02, "delta2": 0.42}))
    assert_matches_reference(Element.from_vector([0.2, 0.3, 0.5], 2), spec, "V", opts)
    spec = random_stochastic(3, 2, 9)
    z0 = Element.from_vector(np.full(5, 0.8), 3)
    assert_matches_reference(z0, spec, "W", opts)
    assert_matches_reference(z0, spec, "V", opts)


def test_patience_run_straddles_a_block_boundary():
    spec = random_stochastic(2, 2, 21)
    z0 = Element.from_vector([0.1, 0.6, 0.2, 0.1], 2)
    states, _ = reference_iterate(z0, spec, "V", IterationOptions(max_steps=9))
    d = [float(np.abs(b.vector - a.vector).sum()) for a, b in zip(states, states[1:])]
    assert d[5] > d[6] > d[7] > d[8]  # the steps into states 6..9 shrink
    # the first small step is the one into state 7: the run 7, 8, 9 crosses
    # from the first block into the second
    opts = IterationOptions(conv_tol=(d[5] + d[6]) / 2, patience=3)
    ref = assert_matches_reference(z0, spec, "V", opts)
    assert (ref.kind, ref.step) == ("converged", 9)
    # a run of 14 small steps, 4..17, spans two block boundaries
    opts = IterationOptions(conv_tol=(d[2] + d[3]) / 2, patience=14)
    ref = assert_matches_reference(z0, spec, "V", opts)
    assert (ref.kind, ref.step) == ("converged", 17)


@pytest.mark.parametrize("u0,step", ((1e7, 1), (1e7 ** 0.25, 3)))
def test_overflow_past_the_terminal_step_is_silent(u0, step):
    # the rows stepped after the divergent one overflow to inf, and on the
    # shift algebra inf * 0 gives nan: none of it may warn
    spec = shift_spec(4, wrap=True)
    for spec, z0 in ((HALF, Element.from_vector([u0, u0], 1)), (spec, first_female(spec, u0, u0))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = iterate(z0, spec, "W")
        assert (traj.outcome.kind, traj.outcome.step) == ("divergent", step)
        assert np.isfinite(traj.states[-1].vector).all()
        assert_matches_reference(z0, spec, "W")


def test_numerically_extinct_with_l1_above_the_underflow_level():
    # W sends (a, a) to (a^2 / 2, -a^2 / 2): each coordinate is below
    # UNDERFLOW_OMEGA and the sum is zero, but the L1 norm is above it
    spec = AlgebraSpec(1, 1, [[[0.5]]], [[[-0.5]]])
    a = np.sqrt(1.5 * UNDERFLOW_OMEGA)
    ref = assert_matches_reference(Element.from_vector([a, a], 1), spec, "W")
    assert (ref.kind, ref.step) == ("numerically_extinct", 1)
