"""Property tests on random stochastic algebras from (1,1) to (4,4) (the
mass rule up to (8,8) and at (32,32)), on one-sex algebras up to (5,1) and
(1,5), on algebras from (2,2) to (4,4) whose products never produce some
coordinates, and on the type-(2,1) family.

Hypothesis draws the algebra type, its seed and the test points; the
profile in conftest.py fixes the examples, so every run tests the same ones.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_newton import (  # noqa: E402
    assert_records_match,
    reference_newton,
    reference_records,
    reference_starts,
    sample_points,
    simplex_points,
)

from gonosim import (  # noqa: E402
    Element,
    IterationOptions,
    apply_V,
    apply_W,
    closed_form_fixed_points_type21,
    idempotent_correspondence,
    iterate,
    omega,
    opposite,
    random_stochastic,
    solve_fixed_points_numeric,
    support_orbit,
    swap_map,
    verify_coordinate_bounds,
    verify_conjugacy,
    verify_omega_bounds,
)
from gonosim.algebra import AlgebraSpec  # noqa: E402
from gonosim.dynamics import CYCLE_MIN_STEP_FACTOR, UNDERFLOW_OMEGA  # noqa: E402
from gonosim.errors import AbsorbedToO, ShapeMismatch  # noqa: E402
from gonosim.fixed_points import (  # noqa: E402
    DEDUP_TOL,
    RESIDUAL_TOL,
    _fixed_support,
    _newton,
    _op_rows,
    _records,
    _starts,
)
from gonosim.scenarios import hemophilia_spec, type21_spec  # noqa: E402

algebras = st.builds(
    random_stochastic, st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1)
)
seeds = st.integers(0, 2**32 - 1)

# a row (g1, g2) of the type-(2,1) family: grid values, where the degenerate
# cases sit, or a Dirichlet draw
EDGE = (0.0, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 1.0)
type21_rows = st.one_of(
    st.tuples(st.sampled_from(EDGE), st.sampled_from(EDGE)).filter(lambda r: r[0] + r[1] <= 1.0),
    seeds.map(lambda s: tuple(np.random.default_rng(s).dirichlet(np.ones(3))[:2].tolist())),
)


def _vectors(dim: int, **bounds):
    return st.lists(st.floats(**bounds), min_size=dim, max_size=dim).map(np.array)


def _same_bits(u: np.ndarray, w: np.ndarray) -> bool:
    return u.shape == w.shape and u.tobytes() == w.tobytes()


@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_element_is_one_read_only_vector(n, nu, data):
    # any float64, NaN, infinities and -0.0 included, reads back bit for bit
    v = data.draw(_vectors(n + nu))
    z = Element.from_vector(v, n)
    for w in (z, Element(z.x, z.y), Element(v[:n], v[n:]), Element.from_vector(z.vector, n)):
        assert _same_bits(w.vector, v) and _same_bits(w.x, v[:n]) and _same_bits(w.y, v[n:])
    assert v.flags.writeable and not np.shares_memory(v, z.vector)
    assert z.vector is z.vector
    for part in (z.vector, z.x, z.y):
        assert not part.flags.writeable and np.shares_memory(part, z.vector)
    # omega and the arithmetic are those of the flat vectors
    a, b = (data.draw(_vectors(n + nu, min_value=-1e100, max_value=1e100)) for _ in range(2))
    c = data.draw(st.floats(-4.0, 4.0))
    za, zb = Element.from_vector(a, n), Element.from_vector(b, n)
    assert omega(za) == a.sum()
    for got, want in ((za + zb, a + b), (za - zb, a - b), (c * za, c * a), (za * c, a * c)):
        assert _same_bits(got.vector, want) and got.x.size == n and not got.vector.flags.writeable
    with pytest.raises(ShapeMismatch):
        za + Element.from_vector(b, n - 1)


@given(algebras, seeds)
def test_records_equal_the_reference_record_by_record(spec, seed):
    rng = np.random.default_rng(seed)
    P = sample_points(spec, rng)
    assert_records_match(_records(P, spec, "W"), reference_records(P, spec, "W"))
    Q = simplex_points(spec, rng)
    assert_records_match(_records(Q, spec, "V"), reference_records(Q, spec, "V"))


@given(algebras)
def test_half_of_every_W_root_is_idempotent(spec):
    # z = W(z) if and only if (z/2)^2 = z/2; idempotent_correspondence
    # raises NotIdempotent on a defect above RESIDUAL_TOL
    for rec in solve_fixed_points_numeric(spec, "W", grid=2):
        half = idempotent_correspondence(rec, spec)
        assert np.array_equal(half.vector, rec.point.vector / 2.0)


def _one_sex_algebra(n: int, seed: int, sparse: bool, swap: bool) -> AlgebraSpec:
    """A random stochastic type-(n,1) algebra, or its type-(1,n) opposite;
    sparse zeroes about a third of the constants, which makes some transfer
    matrices triangular or reducible."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(size=(n, 1, n + 1))
    if sparse:
        rows[rng.random(rows.shape) < 0.3] = 0.0
        rows[..., -1] += rows.sum(axis=2) == 0.0  # a product must land somewhere
    rows /= rows.sum(axis=2, keepdims=True)
    spec = AlgebraSpec(n, 1, rows[:, :, :n], rows[:, :, n:])
    return opposite(spec) if swap else spec


@given(st.builds(_one_sex_algebra, st.integers(1, 5), seeds, st.booleans(), st.booleans()), seeds)
def test_one_sex_W_search_holds_every_newton_root(spec, seed):
    # at most n + 1 records (the 2-homogeneous Bezout number), each a root,
    # and every root of the reference Newton iteration from random starts
    # is one of them or lies on a family record
    recs = solve_fixed_points_numeric(spec, "W")
    assert len(recs) <= max(spec.n, spec.nu) + 1
    assert all(rec.residual < RESIDUAL_TOL for rec in recs)
    for s0 in reference_starts(spec, "W", grid=1, seed=seed, random_starts=8):
        v = reference_newton(np.asarray(s0, dtype=float), spec, "W")
        if v is None:
            continue
        assert any(
            rec.family.contains(v) if rec.family is not None else np.abs(rec.point.vector - v).sum() < DEDUP_TOL
            for rec in recs
        ), v


def _reducible_algebra(n: int, nu: int, seed: int, drop: list) -> AlgebraSpec:
    """A random stochastic type-(n,nu) algebra whose products never produce
    the coordinates k with drop[k]: those kernel columns are zeroed and the
    rows renormalized (at least one coordinate is kept)."""
    rows = np.random.default_rng(seed).uniform(size=(n, nu, n + nu))
    rows[:, :, np.array(drop[: n + nu])] = 0.0
    rows /= rows.sum(axis=2, keepdims=True)
    return AlgebraSpec(n, nu, rows[:, :, :n], rows[:, :, n:])


@given(
    st.builds(
        _reducible_algebra,
        st.integers(2, 4),
        st.integers(2, 4),
        seeds,
        st.lists(st.booleans(), min_size=8, max_size=8).filter(lambda d: not all(d[:4])),
    )
)
def test_W_roots_live_on_the_fixed_support(spec):
    # every root vanishes off the fixed support S and is a root, and every
    # root the Newton grid finds on the full algebra is one of them (or on
    # a family record)
    S = _fixed_support(spec)
    recs = solve_fixed_points_numeric(spec, "W")
    for rec in recs:
        assert not np.any(rec.point.vector[~S])
        assert rec.residual < RESIDUAL_TOL
    found, fate, _ = _newton(_starts(spec, "W", 3, 0, 8), spec, "W")
    for v in found[fate == 0]:
        assert any(
            rec.family.contains(v) if rec.family is not None else np.abs(rec.point.vector - v).sum() < DEDUP_TOL
            for rec in recs
        ), v


@given(type21_rows, type21_rows, st.sampled_from((None, 1e-6)))
def test_type21_closed_form_is_the_whole_fixed_point_set(row_g, row_d, gap):
    # every closed-form point is fixed, and every root of the default numeric
    # search is a closed-form point or lies on the closed-form family; a gap
    # sets d2 = g1 (1 + gap), where the eigenvalues nearly repeat
    if gap is not None:
        row_d = (row_d[0], row_g[0] * (1.0 + gap))
        assume(sum(row_d) <= 1.0)
    params = (*row_g, *row_d)
    spec = type21_spec(*params)
    closed = closed_form_fixed_points_type21(*params)
    assert all(rec.residual < RESIDUAL_TOL for rec in closed)
    points = [rec.point.vector for rec in closed]
    families = [rec.family for rec in closed if rec.family is not None]
    for rec in solve_fixed_points_numeric(spec, "W"):
        v = rec.point.vector
        near = min(np.abs(v - p).sum() for p in points) < DEDUP_TOL * max(1.0, np.abs(v).sum())
        assert near or any(f.contains(v) for f in families), (params, v)


@given(st.builds(random_stochastic, st.integers(1, 3), st.integers(1, 3), seeds), seeds)
def test_support_orbit_is_the_zero_pattern_of_the_exact_W_orbit(spec, seed):
    # random zeros in the constants and the state; W is then iterated in
    # exact rationals over the preperiod and two periods of the support orbit
    rng = np.random.default_rng(seed)
    n, nu = spec.n, spec.nu
    buf = np.concatenate([spec.gamma, spec.gamma_tilde], axis=2) * (rng.random((n, nu, n + nu)) < 0.6)
    spec = AlgebraSpec(n, nu, buf[:, :, :n], buf[:, :, n:])
    v = rng.dirichlet(np.ones(n + nu)) * (rng.random(n + nu) < 0.7)
    masks, p = support_orbit(spec, Element.from_vector(v, n))
    q = len(masks) - p
    K = [[Fraction(c) for c in row] for row in spec.kernel.tolist()]
    z = [Fraction(c) for c in v.tolist()]
    for t in range(p + 2 * q):
        assert tuple(c != 0 for c in z) == masks[t if t < p else p + (t - p) % q], t
        xy = [z[i] * z[n + j] for i in range(n) for j in range(nu)]
        z = [sum(c * row[k] for c, row in zip(xy, K) if c) for k in range(n + nu)]


# relative slack for the rounding of row sums that are 1 only to a few ulps
MASS_SLACK = 1e-12


def _state(spec, seed, mass):
    """A non-negative state of the given mass: random zeros, or for every
    third seed equal female and male masses, where the mass bound is tight."""
    rng = np.random.default_rng(seed)
    v = rng.dirichlet(np.ones(spec.dim)) * (rng.random(spec.dim) < 0.8)
    if seed % 3 == 0:
        v = np.concatenate([rng.dirichlet(np.ones(spec.n)), rng.dirichlet(np.ones(spec.nu))])
    total = v.sum()
    return Element.from_vector(v * (mass / total if total else 0.0), spec.n)


@given(algebras, seeds, st.floats(0.0, 50.0))
def test_mass_of_W_is_at_most_a_quarter_of_the_squared_mass(spec, seed, mass):
    # omega(W(z)) = omega(x) omega(y) <= omega(z)^2 / 4 for a stochastic algebra
    z = _state(spec, seed, mass)
    assert omega(apply_W(z, spec)) <= omega(z) ** 2 / 4.0 * (1.0 + MASS_SLACK)


@given(algebras, seeds, st.floats(0.0, 4.0))
def test_mass_does_not_increase_from_at_most_four(spec, seed, mass):
    omegas = iterate(_state(spec, seed, mass), spec, "W", IterationOptions(max_steps=40)).omegas
    for before, after in zip(omegas, omegas[1:]):
        assert after <= before * (1.0 + MASS_SLACK)


@given(algebras, seeds, st.floats(0.0, 40.0))
def test_mass_stays_inside_its_envelopes(spec, seed, mass):
    # above mass 4 the monotone test does not apply; the squeeze, doubling and
    # M/16 envelopes hold from any non-negative start, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify_omega_bounds(_state(spec, seed, mass), spec, 6).all_pass


def _dirichlet_state(spec, seed, mass=1.0):
    return Element.from_vector(np.random.default_rng(seed).dirichlet(np.ones(spec.dim)) * mass, spec.n)


@given(algebras, seeds)
def test_V_orbit_stays_inside_the_coordinate_envelopes(spec, seed):
    # for t >= 1 each coordinate of V^t(z) lies between the extremes of its kernel column
    assert verify_coordinate_bounds(_dirichlet_state(spec, seed), spec, 8).all_pass


@given(algebras, seeds)
def test_swap_map_conjugates_an_algebra_and_its_opposite(spec, seed):
    assert verify_conjugacy(spec, opposite(spec), swap_map(spec), samples=5, seed=seed)


@given(algebras, seeds, st.floats(0.5, 8.0))
def test_W_orbit_of_the_swapped_state_is_the_swapped_orbit(spec, seed, mass):
    # the opposite kernel sums in another order, so the states agree to rounding only
    phi = swap_map(spec)
    z = _dirichlet_state(spec, seed, mass)
    a = iterate(z, spec, "W", IterationOptions(max_steps=60))
    b = iterate(Element.from_vector(phi @ z.vector, spec.nu), opposite(spec), "W", IterationOptions(max_steps=60))
    assert (b.outcome.kind, b.outcome.step) == (a.outcome.kind, a.outcome.step)
    np.testing.assert_allclose([v.vector for v in b.states], [phi @ v.vector for v in a.states], rtol=1e-9)


def reference_iterate(z0, spec, operator, opts):
    """iterate as a plain loop: one apply_W or apply_V call a step, then the
    outcome precedence on that step, with the full L1 distance to each of
    the states 2..max_period back.  Returns (states, omegas, outcome fields)."""
    step = apply_V if operator == "V" else apply_W
    states = [z0]
    quiet, kind, period, final_l1 = 0, None, None, None
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, opts.max_steps + 1):
            try:
                z = step(states[-1], spec)
            except AbsorbedToO:
                kind = "absorbed"
                break
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
    fields = (kind or "max_iterations", len(states) - 1, period, final_l1)
    return states, [omega(z) for z in states], fields


def assert_iterate_is_the_reference(z0, spec, operator, opts):
    got = iterate(z0, spec, operator, opts)
    states, omegas, (kind, step, period, final_l1) = reference_iterate(z0, spec, operator, opts)
    out = got.outcome
    assert (out.kind, out.step, out.period) == (kind, step, period)
    assert np.array(out.final_step_l1, dtype=float).tobytes() == np.array(final_l1, dtype=float).tobytes()
    assert _same_bits(np.array([z.vector for z in got.states]), np.array([z.vector for z in states]))
    assert _same_bits(np.array(got.omegas), np.array(omegas))
    assert (out.point is None) == (kind != "converged")
    if out.point is not None:
        assert out.point is got.states[-1]
    assert [r.vector.tobytes() for r in out.representatives] == (
        [z.vector.tobytes() for z in states[-period:]] if period else []
    )
    return out


def _three_cycle() -> AlgebraSpec:
    """Type (3,1): e_i m = e_(i+1 mod 3) / 2 + m / 2, so V permutes the females of a state with y = 1/2."""
    gamma, gamma_tilde = np.zeros((3, 1, 3)), np.full((3, 1, 1), 0.5)
    for i in range(3):
        gamma[i, 0, (i + 1) % 3] = 0.5
    return AlgebraSpec(3, 1, gamma, gamma_tilde)


# orbits the classifier must get right besides random ones: period-2
# recessive_lethal cycles, alternating convergence (the step-size rule that
# keeps it from being a cycle), a period-3 cycle, exact extinction under W
# (absorption under V), a W orbit that overflows, and one whose overflow
# turns into NaN (inf * 0 on a zero kernel entry) at step 10
NAMED_ORBITS = {
    "period_2": (type21_spec(0.0, 0.3, 0.5, 0.0), [0.5, 0.0, 0.5]),
    "period_2_other": (type21_spec(0.0, 0.3, 0.4, 0.0), [0.0, 0.6, 0.4]),
    "alternating": (type21_spec(0.1, 0.5, 0.4, 0.1), [0.2, 0.3, 0.5]),
    "period_3": (_three_cycle(), [0.3, 0.15, 0.05, 0.5]),
    "extinct": (hemophilia_spec(1.0, 0.8), [0.25, 0.25, 0.25, 0.25]),
    "overflow": (random_stochastic(2, 2, 0), [3.0, 2.0, 1.0, 4.0]),
    "overflow_to_nan": (_three_cycle(), [3.0, 1.5, 0.5, 5.0]),
}


@given(
    st.one_of(algebras, st.sampled_from([spec for spec, _ in NAMED_ORBITS.values()])),
    seeds,
    st.floats(0.1, 40.0),
    st.sampled_from("WV"),
    st.builds(
        IterationOptions,
        conv_tol=st.sampled_from((1e-9, 1e-12, 1e-4)),
        patience=st.integers(1, 4),
        div_threshold=st.sampled_from((1e12, 1e300)),
        max_steps=st.sampled_from((0, 1, 2, 3, 12, 60, 500)),
        max_period=st.sampled_from((1, 2, 3, 8, 20)),
    ),
)
@settings(max_examples=200)
def test_iterate_is_the_step_by_step_classifier(spec, seed, mass, operator, opts):
    # masses on both sides of 4: W decays below it and may overflow above it
    assert_iterate_is_the_reference(_state(spec, seed, mass), spec, operator, opts)


@pytest.mark.parametrize("name", sorted(NAMED_ORBITS))
@pytest.mark.parametrize("operator", ("W", "V"))
@pytest.mark.parametrize("max_steps", (0, 1, 2, 3, 500))
@pytest.mark.parametrize("max_period", (1, 2, 8))
def test_iterate_is_the_step_by_step_classifier_on_named_orbits(name, operator, max_steps, max_period):
    spec, v = NAMED_ORBITS[name]
    z0 = Element.from_vector(v, spec.n)
    for div_threshold in (1e12, 1e300):
        opts = IterationOptions(max_steps=max_steps, max_period=max_period, div_threshold=div_threshold)
        out = assert_iterate_is_the_reference(z0, spec, operator, opts)
        if operator == "V" and max_steps == 500 and name.startswith("period_"):
            # a return at a gap above max_period is no cycle
            period = int(name[len("period_")])
            assert (out.kind == "cycle") == (max_period >= period)
            assert out.period == (period if max_period >= period else None)
        if name == "alternating" and operator == "V" and max_steps == 500:
            assert out.kind == "converged"
        if name == "overflow_to_nan" and operator == "W" and max_steps == 500 and div_threshold == 1e300:
            # a NaN L1 norm is divergent: the orbit ends at its first NaN state
            assert (out.kind, out.step) == ("divergent", 10)


@pytest.mark.parametrize(
    "scale,kind,step",
    (
        (1e-150, "extinct", 2),
        (1e-152, "numerically_extinct", 1),
        (1e-155, "numerically_extinct", 1),
        (1e-161, "numerically_extinct", 1),
        (1e-162, "extinct", 1),
    ),
)
@pytest.mark.parametrize("v", ([1.0, 1.0, 1.0, 1.0], [0.5, 1.0, 2.0, 3.0]))
def test_underflow_verdicts_of_W_orbits_through_tiny_masses(v, scale, kind, step):
    # as z shrinks, the mass of W(z) is a normal float near 4e-300 (whose W
    # image is 0.0), then subnormal (4e-304 down to 7e-322), then 0.0
    z0 = Element.from_vector(np.array(v) * scale, 2)
    out = assert_iterate_is_the_reference(z0, random_stochastic(2, 2, 0), "W", IterationOptions())
    assert (out.kind, out.step) == (kind, step)


@given(
    st.one_of(
        st.builds(random_stochastic, st.integers(1, 8), st.integers(1, 8), seeds),
        st.builds(random_stochastic, st.just(32), st.just(32), seeds),
    ),
    seeds,
    st.floats(0.0, 40.0),
)
@settings(max_examples=100)
def test_every_mass_is_one_sum_over_the_state_vector(spec, seed, mass):
    # omega, the omegas of an orbit, the V step of apply_V and iterate, and
    # the V evaluator of the fixed-point search all take the same float
    z = _state(spec, seed, mass)
    assert omega(z) == float(z.vector.sum())
    for operator in "WV":
        traj = iterate(z, spec, operator, IterationOptions(max_steps=30))
        assert traj.omegas == [omega(s) for s in traj.states]
    op, _, _, absorbed = _op_rows(z.vector[None], spec, "V")
    if absorbed[0]:
        with pytest.raises(AbsorbedToO):
            apply_V(z, spec)
        return
    v = apply_V(z, spec).vector
    assert _same_bits(v, op[0])
    assert _records(z.vector[None], spec, "V")[0].residual == np.abs(v - z.vector).sum()
