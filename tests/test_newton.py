"""The batched Newton search against the start-by-start loop it replaced.

``reference_newton`` is the sequential Newton iteration, with the
central finite-difference Jacobian of V, and ``reference_search`` the
start-order deduplication around it.  Both carry the two rules of the
batched search: near-zero coordinates of an accepted root are snapped to
0.0, and a V root without female or male mass is rejected.
"""

import numpy as np
import pytest

from gonosim import (
    Element,
    apply_V,
    apply_W,
    jacobian_V,
    random_stochastic,
    solve_fixed_points_numeric,
)
from gonosim.algebra import AlgebraSpec
from gonosim.errors import GonosimError, NotStochastic
from gonosim.fixed_points import (
    DEDUP_TOL,
    RESIDUAL_TOL,
    ROOT_ZERO_TOL,
    _FAILURES,
    _detect_family,
    _newton,
    _residual,
    _simplex_tangent_basis,
    jacobian_W,
    make_record,
)
from gonosim.scenarios import Scenario, build_algebra, type11_spec

SCENARIOS = [
    Scenario("lr_lethal", {"gamma": 0.3}),
    Scenario("lr_mutation", {"mu": 0.5, "eta": 0.4}),
    Scenario("recessive_lethal", {"gamma1": 0.3, "gamma2": 0.2, "delta1": 0.25, "delta2": 0.35}),
    Scenario("hemophilia", {"mu": 0.4, "eta": 1.0}),
    Scenario("hemophilia", {"mu": 1.0, "eta": 0.8}),
    Scenario("hemophilia", {"mu": 0.3, "eta": 0.6}),
    Scenario("x_inactivation", {"gamma1": 0.2, "gamma2": 0.3, "delta1": 0.1, "delta2": 0.5}),
]
# g2 = d1 = 0 and g1 = d2: W has a line of fixed points, and so has V
FAMILY = Scenario("recessive_lethal", {"gamma1": 0.3, "gamma2": 0.0, "delta1": 0.0, "delta2": 0.3})
RANDOM = [(1, 1, 0), (1, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 4), (2, 2, 5), (3, 3, 6)]


def reference_newton(z0v, spec, operator):
    op = apply_W if operator == "W" else apply_V
    v = z0v.copy()
    dim = spec.dim
    for _ in range(100):
        z = Element.from_vector(v, spec.n)
        try:
            F = op(z, spec).vector - v
        except GonosimError:
            return None
        if operator == "W":
            J = jacobian_W(z, spec)
        else:
            J = np.zeros((dim, dim))
            h = 1e-7
            try:
                for c in range(dim):
                    e = np.zeros(dim)
                    e[c] = h
                    J[:, c] = (
                        apply_V(Element.from_vector(v + e, spec.n), spec).vector
                        - apply_V(Element.from_vector(v - e, spec.n), spec).vector
                    ) / (2 * h)
            except GonosimError:
                return None
        J -= np.eye(dim)
        try:
            s = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            s = np.linalg.solve(J.T @ J + 1e-10 * np.eye(dim), -J.T @ F)
        if not np.all(np.isfinite(s)):
            return None
        v = v + s
        if not np.all(np.isfinite(v)) or np.abs(v).max() > 1e8:
            return None
        if operator == "V":
            tot = v.sum()
            if abs(tot) > 1e-12:
                v = v / tot
        if float(np.abs(s).sum()) < 1e-13:
            break
    try:
        if _residual(Element.from_vector(v, spec.n), spec, operator) >= RESIDUAL_TOL:
            return None
    except GonosimError:
        return None
    v = np.where(np.abs(v) <= ROOT_ZERO_TOL * max(1.0, np.abs(v).max()), 0.0, v)
    if operator == "V" and min(abs(v[: spec.n].sum()), abs(v[spec.n :].sum())) < DEDUP_TOL:
        return None
    return v


def reference_starts(spec, operator, grid=3, seed=0, random_starts=8):
    rng = np.random.default_rng(seed)
    dim = spec.dim
    if operator == "V":
        return [rng.dirichlet(np.ones(dim)) for _ in range(grid**2 + random_starts)]
    axes = np.linspace(0.0, 5.0, grid)
    mesh = np.meshgrid(*([axes] * dim), indexing="ij")
    near = random_starts - random_starts // 2
    return (
        [np.zeros(dim)]
        + list(np.stack([m.ravel() for m in mesh], axis=1))
        + list(rng.uniform(0.0, 5.0, size=(near, dim)))
        + list(rng.uniform(-10.0, 40.0, size=(random_starts // 2, dim)))
    )


def reference_search(spec, operator):
    roots = [np.zeros(spec.dim)] if operator == "W" else []
    families = []
    for s0 in reference_starts(spec, operator):
        v = reference_newton(np.asarray(s0, dtype=float), spec, operator)
        if v is None:
            continue
        if any(float(np.abs(v - r).sum()) < DEDUP_TOL for r in roots):
            continue
        if any(f.contains(v) for f in families):
            continue
        fam = _detect_family(v, spec, operator)
        if fam is not None:
            roots = [r for r in roots if not (fam.contains(r) and np.abs(r).sum() > DEDUP_TOL)]
            families.append(fam)
        else:
            roots.append(v)
    records = [make_record(Element.from_vector(r, spec.n), spec, operator) for r in roots]
    for fam in families:
        rec = make_record(Element.from_vector(fam.base_point, spec.n), spec, operator)
        rec.family = fam
        records.append(rec)
    return records


def assert_same_records(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.abs(g.point.vector - w.point.vector).sum() <= 1e-9
        assert (g.stability_w, g.stability_v) == (w.stability_w, w.stability_v)
        assert (g.family is None) == (w.family is None)
        if g.family is not None:
            assert np.abs(g.family.base_point - w.family.base_point).sum() <= 1e-9
            assert abs(abs(g.family.direction @ w.family.direction) - 1.0) <= 1e-9


@pytest.mark.parametrize("operator", ["W", "V"])
@pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=lambda s: "-".join([s.name, *map(str, s.params.values())])
)
def test_scenario_roots_match_reference(scenario, operator):
    spec = build_algebra(scenario)
    want = reference_search(spec, operator)
    assert_same_records(solve_fixed_points_numeric(spec, operator), want)


def test_family_matches_reference():
    spec = build_algebra(FAMILY)
    want = reference_search(spec, "W")
    got = solve_fixed_points_numeric(spec, "W")
    assert_same_records(got, want)
    assert [r.family is not None for r in got] == [False, True]


def test_line_of_V_fixed_points():
    # the V roots fill the line x1 + x2 = 0.3, y = 0.7; both searches
    # collapse them into one family record along (1, -1, 0), whose base
    # point is the first root found and so depends on rounding
    spec = build_algebra(FAMILY)
    want = reference_search(spec, "V")
    got = solve_fixed_points_numeric(spec, "V")
    assert len(got) == len(want) == 1
    rec = got[0]
    assert rec.family is not None and want[0].family is not None
    assert rec.family.contains(want[0].point.vector)
    assert abs(rec.point.x.sum() - 0.3) < 1e-9 and abs(rec.point.y[0] - 0.7) < 1e-9
    assert rec.stability_v == "marginal"
    assert np.abs(np.abs(rec.family.direction) - [0.5**0.5, 0.5**0.5, 0.0]).max() < 1e-9
    for s0 in reference_starts(spec, "V"):
        v = reference_newton(np.asarray(s0, dtype=float), spec, "V")
        assert v is None or rec.family.contains(v)


@pytest.mark.parametrize("operator", ["W", "V"])
@pytest.mark.parametrize("n, nu, seed", RANDOM)
def test_random_roots_match_reference(n, nu, seed, operator):
    spec = random_stochastic(n, nu, seed)
    want = reference_search(spec, operator)
    assert_same_records(solve_fixed_points_numeric(spec, operator), want)


def test_corner_root_of_V_is_rejected():
    # Newton ends near (0, 1e-31, 0, 1): residual 1e-31, but V is undefined
    # one step later, at the corner (0, 0, 0, 1)
    spec = build_algebra(Scenario("hemophilia", {"mu": 1.0, "eta": 0.8}))
    found, fate, _ = _newton(np.array(reference_starts(spec, "V")), spec, "V")
    assert np.all(found == [0.0, 0.0, 0.0, 1.0])
    assert np.all(fate == 1 + _FAILURES.index("absorbed"))
    assert solve_fixed_points_numeric(spec, "V") == []


def test_diagnostics_are_a_serialized_field():
    for operator, failures in (
        ("W", ("rejected_residual", "nonfinite", "diverged")),
        ("V", ("rejected_residual", "nonfinite", "diverged", "absorbed")),
    ):
        recs = solve_fixed_points_numeric(random_stochastic(2, 2, 1), operator)
        diag = recs[0].diagnostics
        assert set(diag) == {"attempted", "converged", "singular", *failures}
        assert diag["attempted"] == diag["converged"] + sum(diag[k] for k in failures)
        assert all(r.to_dict()["diagnostics"] == diag for r in recs)


def test_V_search_requires_a_stochastic_algebra():
    with pytest.raises(NotStochastic):
        solve_fixed_points_numeric(AlgebraSpec(1, 1, [[[1.5]]], [[[-0.5]]]), "V")


def test_singular_jacobian_in_the_batch():
    # at gamma = 0.5, J_W - I is exactly singular on the line x + y = 2
    spec = type11_spec(0.5)
    starts = np.array([[4.0, 4.0], [1.0, 1.0], [0.25, 4.0]])
    found, fate, singular = _newton(starts, spec, "W")
    assert singular.tolist() == [False, True, False]
    for row, s0 in enumerate(starts):
        want = reference_newton(s0, spec, "W")
        assert (fate[row] == 0) == (want is not None)
        if want is not None:
            assert np.abs(found[row] - want).sum() <= 1e-12


@pytest.mark.parametrize("n, nu", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 4)])
def test_jacobian_V_matches_central_differences(n, nu):
    rng = np.random.default_rng(n * 10 + nu)
    T = _simplex_tangent_basis(n + nu)
    h = 1e-6
    for seed in range(5):
        spec = random_stochastic(n, nu, seed)
        z = rng.dirichlet(np.ones(n + nu))
        fd = np.column_stack([
            T.T @ (apply_V(Element.from_vector(z + h * t, n), spec).vector
                   - apply_V(Element.from_vector(z - h * t, n), spec).vector) / (2 * h)
            for t in T.T
        ])
        assert np.abs(jacobian_V(Element.from_vector(z, n), spec) - fd).max() <= 1e-6


def test_batch_where_every_start_fails():
    found, fate, _ = _newton(np.full((2, 2), 1e9), type11_spec(0.5), "W")
    assert np.all(fate == 1 + _FAILURES.index("diverged"))
