"""The batched Newton search against the start-by-start loop it replaced.

``reference_newton`` is the sequential Newton iteration, with the
central finite-difference Jacobian of V, and ``reference_search`` the
start-order deduplication around it.  Both carry the two rules of the
batched search: near-zero coordinates of an accepted root are snapped to
0.0, and a V root without female or male mass is rejected.
``reference_make_record`` builds one record at a time, the way records
were built before the one-pass ``_records``.
"""

import numpy as np
import pytest

from gonosim import (
    Element,
    apply_V,
    apply_W,
    closed_form_fixed_points_hemophilia,
    closed_form_fixed_points_type11,
    closed_form_fixed_points_type21,
    jacobian_V,
    omega,
    random_stochastic,
    solve_fixed_points_numeric,
)
from gonosim.algebra import AlgebraSpec, State
from gonosim.errors import AbsorbedToO, GonosimError, NotStochastic
from gonosim.fixed_points import (
    DEDUP_TOL,
    FAMILY_SINGULAR_TOL,
    NEWTON_RIDGE,
    RESIDUAL_TOL,
    ROOT_ZERO_TOL,
    _FAILURES,
    FamilyDescriptor,
    FixedPointRecord,
    _newton,
    _newton_steps,
    _op_rows,
    _records,
    _simplex_tangent_basis,
    classify_spectrum,
    jacobian_W,
    make_record,
)
from gonosim.scenarios import Scenario, build_algebra, hemophilia_spec, type11_spec, type21_spec

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


# frozen copies of the package's former _residual and _detect_family, so the
# reference search does not run the evaluator it checks: the residual goes
# through apply_W and apply_V, the family test through the public Jacobians


def _residual(z: State, spec: AlgebraSpec, operator: str) -> float:
    op = apply_W if operator == "W" else apply_V
    return float(np.abs(op(z, spec).vector - z.vector).sum())


def _detect_family(v: np.ndarray, spec: AlgebraSpec, operator: str) -> FamilyDescriptor | None:
    """The line of fixed points through the root v, if there is one.

    A near-zero singular value of J - I gives the candidate direction (for
    V, of the tangent-space Jacobian, since V keeps the unit sum); the line
    counts as a family when the probes at both ends of
    FamilyDescriptor.parameter_range_tested along it are fixed too.
    """
    z = Element.from_vector(v, spec.n)
    if operator == "W":
        T = np.eye(spec.dim)
        J = jacobian_W(z, spec) - T
    else:
        T = _simplex_tangent_basis(spec.dim)
        J = jacobian_V(z, spec) - np.eye(spec.dim - 1)
    _, svals, vt = np.linalg.svd(J)
    if svals[-1] >= FAMILY_SINGULAR_TOL:
        return None
    direction = T @ vt[-1]
    for off in FamilyDescriptor.parameter_range_tested:
        cand = Element.from_vector(v + off * direction, spec.n)
        if _residual(cand, spec, operator) >= RESIDUAL_TOL:
            return None
    return FamilyDescriptor(base_point=v.copy(), direction=direction)


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


def reference_make_record(z, spec, operator="W"):
    rec = FixedPointRecord(z, operator, _residual(z, spec, operator))
    if operator == "W":
        rec.w_eigenvalues = np.linalg.eigvals(jacobian_W(z, spec))
        rec.stability_w = classify_spectrum(rec.w_eigenvalues)
        if spec.is_stochastic() and np.all(z.vector >= 0) and omega(z) > 0:
            zn = Element(z.x / omega(z), z.y / omega(z))
            if np.any(zn.x > 0) and np.any(zn.y > 0):
                rec.v_eigenvalues = np.linalg.eigvals(jacobian_V(zn, spec))
                rec.stability_v = classify_spectrum(rec.v_eigenvalues)
    else:
        rec.v_eigenvalues = np.linalg.eigvals(jacobian_V(z, spec))
        rec.stability_v = classify_spectrum(rec.v_eigenvalues)
        rec.w_eigenvalues = np.linalg.eigvals(jacobian_W(z, spec))
        rec.stability_w = classify_spectrum(rec.w_eigenvalues)
    return rec


def reference_records(points, spec, operator):
    return [reference_make_record(Element.from_vector(p, spec.n), spec, operator) for p in points]


def assert_records_match(got, want):
    """Same points, operators and labels; residuals and spectra within 1e-12."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.point.vector, w.point.vector)
        assert g.operator == w.operator
        assert (g.stability_w, g.stability_v) == (w.stability_w, w.stability_v)
        assert g.residual == pytest.approx(w.residual, rel=1e-12, abs=1e-15)
        for a, b in ((g.w_eigenvalues, w.w_eigenvalues), (g.v_eigenvalues, w.v_eigenvalues)):
            assert (a is None) == (b is None)
            if b is not None:
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)


def reference_starts(spec, operator, grid=3, seed=0, random_starts=8):
    rng = np.random.default_rng(seed)
    dim = spec.dim
    if operator == "V":
        return [rng.dirichlet(np.ones(dim)) for _ in range((grid**2 if grid > 1 else 0) + random_starts)]
    mesh = np.meshgrid(*([np.linspace(0.0, 5.0, grid)] * dim), indexing="ij")
    near = random_starts - random_starts // 2
    return (
        [np.zeros(dim)]
        + (list(np.stack([m.ravel() for m in mesh], axis=1)) if grid > 1 else [])
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
    records = reference_records(roots, spec, operator)
    for fam in families:
        rec = reference_make_record(Element.from_vector(fam.base_point, spec.n), spec, operator)
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


def assert_holds_records(got, want):
    """Every record of want has one in got at the same point, with its labels."""
    for w in want:
        assert w.family is None
        assert any(
            np.abs(g.point.vector - w.point.vector).sum() <= 1e-9
            and (g.stability_w, g.stability_v) == (w.stability_w, w.stability_v)
            and g.family is None
            for g in got
        )


def assert_search_matches_reference(spec, operator):
    """The search against reference_search: on a one-sex type the exact eigen
    set (for V its normalized roots), which holds every root of the grid and
    may hold more; else the same records in the same order."""
    want = reference_search(spec, operator)
    got = solve_fixed_points_numeric(spec, operator)
    if 1 in (spec.n, spec.nu):
        assert got[0].diagnostics["method"] == "eigen"
        assert_holds_records(got, want)
    else:
        assert_same_records(got, want)


@pytest.mark.parametrize("operator", ["W", "V"])
@pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=lambda s: "-".join([s.name, *map(str, s.params.values())])
)
def test_scenario_roots_match_reference(scenario, operator):
    assert_search_matches_reference(build_algebra(scenario), operator)


def test_family_matches_reference():
    # type (2,2) with e_i m_p = 0.3 e_i + 0.35 (m_1 + m_2): the fixed support
    # keeps both sexes, so the grid search runs, and W is fixed on the line
    # x1 + x2 = 1 / 0.7, y1 = y2 = 1 / 0.6
    gamma = 0.3 * np.eye(2)[:, None, :].repeat(2, axis=1)
    spec = AlgebraSpec(2, 2, gamma, np.full((2, 2, 2), 0.35))
    want = reference_search(spec, "W")
    got = solve_fixed_points_numeric(spec, "W")
    assert got[0].diagnostics["method"] == "newton"
    assert_same_records(got, want)
    assert [r.family is not None for r in got] == [False, True]
    x1, x2, y1, y2 = got[1].point.vector
    assert abs(x1 + x2 - 1 / 0.7) < 1e-9 and abs(y1 - 1 / 0.6) < 1e-9 and abs(y2 - 1 / 0.6) < 1e-9


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
    assert_search_matches_reference(random_stochastic(n, nu, seed), operator)


@pytest.mark.parametrize("operator", ["W", "V"])
@pytest.mark.parametrize("grid, random_starts", [(3, 8), (1, 5), (2, 0)])
def test_search_runs_the_reference_starts(operator, grid, random_starts, monkeypatch):
    import gonosim.fixed_points as fp

    seen = []
    newton = fp._newton
    monkeypatch.setattr(fp, "_newton", lambda starts, *a: seen.append(starts) or newton(starts, *a))
    spec = random_stochastic(2, 2, 4)
    solve_fixed_points_numeric(spec, operator, grid=grid, seed=7, random_starts=random_starts)
    want = reference_starts(spec, operator, grid=grid, seed=7, random_starts=random_starts)
    assert len(want) == fp._start_count(spec.dim, operator, grid, random_starts)
    assert np.array_equal(seen[0], np.reshape(want, (-1, spec.dim)))


class _StartsMade(Exception):
    pass


@pytest.mark.parametrize("n, operator, admitted", [(5, "W", True), (6, "V", True), (6, "W", False)])
def test_newton_search_size_is_bounded_before_any_start_is_made(n, operator, admitted, monkeypatch):
    # the default W grid is 3^dim starts with a dim x dim Jacobian each: 5.9M
    # floats at (5,5), 76.5M at (6,6); the V search makes 17 starts at any type
    import gonosim.fixed_points as fp

    def made(*args):
        raise _StartsMade

    monkeypatch.setattr(fp, "_starts", made)
    spec = random_stochastic(n, n, 0)
    if admitted:
        with pytest.raises(_StartsMade):
            solve_fixed_points_numeric(spec, operator)
    else:
        with pytest.raises(ValueError, match="needs 531450 starts of dimension 12"):
            solve_fixed_points_numeric(spec, operator)


def test_corner_root_of_V_is_rejected():
    # Newton ends near (0, 1e-31, 0, 1): residual 1e-31, but V is undefined
    # one step later, at the corner (0, 0, 0, 1)
    spec = build_algebra(Scenario("hemophilia", {"mu": 1.0, "eta": 0.8}))
    found, fate, _ = _newton(np.array(reference_starts(spec, "V")), spec, "V")
    assert np.all(found == [0.0, 0.0, 0.0, 1.0])
    assert np.all(fate == 1 + _FAILURES.index("absorbed"))
    assert solve_fixed_points_numeric(spec, "V") == []


@pytest.mark.parametrize("mu, eta", [(1.0, 0.8), (1.0, 0.2), (1.0, 1.0)])
def test_V_search_runs_no_start_on_an_empty_fixed_support(mu, eta, monkeypatch):
    # a V fixed point z has W(z) = omega(W(z)) z with omega(W(z)) != 0, so it
    # vanishes off the fixed support, which is empty here
    import gonosim.fixed_points as fp

    spec = hemophilia_spec(mu, eta)
    assert not fp._fixed_support(spec).any()

    def no_newton(*args):
        raise AssertionError("the V search ran a Newton start")

    monkeypatch.setattr(fp, "_newton", no_newton)
    assert solve_fixed_points_numeric(spec, "V") == []
    with pytest.raises(AssertionError, match="Newton"):
        solve_fixed_points_numeric(hemophilia_spec(0.4, 0.8), "V")


def test_diagnostics_are_a_serialized_field():
    for operator, failures in (
        ("W", ("rejected_residual", "nonfinite", "diverged")),
        ("V", ("rejected_residual", "nonfinite", "diverged", "absorbed")),
    ):
        recs = solve_fixed_points_numeric(random_stochastic(2, 2, 1), operator)
        diag = recs[0].diagnostics
        assert set(diag) == {"method", "attempted", "converged", "singular", *failures}
        assert diag["method"] == "newton"
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


@pytest.mark.parametrize("spec", [type11_spec(0.5), type21_spec(0.3, 0.2, 0.25, 0.35)], ids=["11", "21"])
def test_only_the_singular_rows_take_the_ridge_step(spec):
    # the first Newton step from the search's starts: (1, 1) for the first
    # algebra and (0, 2.5, 0) for the second have an exactly singular J - I
    starts = np.vstack([reference_starts(spec, "W"), [[1.0, 1.0, 1.0][: spec.dim]]])
    opZ, _, J, _ = _op_rows(starts, spec, "W", jacobians=True)
    J = J - np.eye(spec.dim)
    F = opZ - starts
    steps, singular = _newton_steps(J, F)
    raises = []
    for r in range(len(J)):
        try:
            want = np.linalg.solve(J[r], -F[r])
        except np.linalg.LinAlgError:
            raises.append(r)
            want = np.linalg.solve(J[r].T @ J[r] + NEWTON_RIDGE * np.eye(spec.dim), -J[r].T @ F[r])
        assert np.array_equal(steps[r], want)
    assert raises and len(raises) < len(J)
    assert np.flatnonzero(singular).tolist() == raises


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


# ---------------------------------------------------------------------------
# One record pass against the record-by-record reference


def sample_points(spec, rng):
    """W test points: non-negative, signed, one sex absent, zero."""
    n, dim = spec.n, spec.dim
    normal = rng.normal(size=dim)
    normal[0] = -abs(normal[0]) - 0.1
    P = [
        rng.dirichlet(np.ones(dim)) * 7.0,
        rng.dirichlet(np.ones(dim)),
        normal,
        np.zeros(dim),
        np.r_[np.zeros(n), rng.uniform(0.5, 2.0, spec.nu)],  # no female mass
        np.r_[rng.uniform(0.5, 2.0, n), np.zeros(spec.nu)],  # no male mass
    ]
    signed = rng.dirichlet(np.ones(dim)) * 3.0
    signed[-1] = -0.5  # a negative coordinate
    P.append(signed)
    return np.array(P)


def simplex_points(spec, rng):
    """V test points: on the simplex, and signed with unit sum and both sexes' sums non-zero."""
    dim = spec.dim
    P = list(rng.dirichlet(np.ones(dim), size=4))
    signed = rng.dirichlet(np.ones(dim))
    signed[0] -= 0.2
    signed[-1] += 0.2
    P.append(signed)
    return np.array(P)


@pytest.mark.parametrize("n, nu", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (4, 4), (8, 8)])
def test_records_match_reference_on_random_algebras(n, nu):
    rng = np.random.default_rng(100 * n + nu)
    for seed in range(3):
        spec = random_stochastic(n, nu, seed)
        P = sample_points(spec, rng)
        got = _records(P, spec, "W")
        assert_records_match(got, reference_records(P, spec, "W"))
        # rows 0-2 have a V spectrum; the zero row, the one-sex rows and the signed row do not
        assert [r.v_eigenvalues is not None for r in got] == [True, True, False, False, False, False, False]
        Q = simplex_points(spec, rng)
        assert_records_match(_records(Q, spec, "V"), reference_records(Q, spec, "V"))
    # a non-stochastic algebra: no V spectrum for any W record
    gamma = rng.normal(size=(n, nu, n))
    gamma[0, 0, 0] = -1.0
    spec = AlgebraSpec(n, nu, gamma, rng.normal(size=(n, nu, nu)))
    P = sample_points(spec, rng)
    got = _records(P, spec, "W")
    assert_records_match(got, reference_records(P, spec, "W"))
    assert all(r.v_eigenvalues is None for r in got)
    with pytest.raises(NotStochastic):
        _records(P, spec, "V")


def test_make_record_is_a_one_row_pass():
    spec = random_stochastic(2, 2, 3)
    rng = np.random.default_rng(5)
    P = sample_points(spec, rng)
    batch = _records(P, spec, "W")
    for p, rec in zip(P, batch):
        z = Element.from_vector(p, spec.n)
        one = make_record(z, spec, "W")
        assert one.point is z
        assert_records_match([one], [rec])
        assert one.residual == rec.residual
        assert np.array_equal(one.w_eigenvalues, rec.w_eigenvalues)


@pytest.mark.parametrize("row", [[0.0, 0.0, 0.5, 0.5], [0.5, 0.5, 0.0, 0.0]], ids=["no-female", "no-male"])
def test_V_record_without_a_sex_is_absorbed(row):
    spec = random_stochastic(2, 2, 0)
    with pytest.raises(AbsorbedToO):
        _records(np.array([[0.25] * 4, row]), spec, "V")
    with pytest.raises(AbsorbedToO):
        reference_make_record(Element.from_vector(row, 2), spec, "V")


CLOSED_FORMS = [  # (closed form, parameters, algebra)
    (closed_form_fixed_points_type11, (0.3,), type11_spec(0.3)),
    (closed_form_fixed_points_type11, (0.75,), type11_spec(0.75)),
    *(
        (closed_form_fixed_points_type21, args, type21_spec(*args))
        for args in (
            (0.3, 0.2, 0.25, 0.35),  # two quadratic roots
            (0.3, 0.0, 0.0, 0.3),  # a line of fixed points
            (0.3, 0.0, 0.0, 0.5),
            (0.3, 0.2, 0.0, 0.5),
            (0.3, 0.0, 0.2, 0.5),
            (0.2, 0.3, 0.4, 0.6),  # D = 0
            (0.0, 0.4, 0.3, 0.0),
        )
    ),
    (closed_form_fixed_points_hemophilia, (0.4, 1.0), hemophilia_spec(0.4, 1.0)),
    (closed_form_fixed_points_hemophilia, (1.0, 0.8), hemophilia_spec(1.0, 0.8)),
]


@pytest.mark.parametrize(
    "fn, args, spec", CLOSED_FORMS, ids=[f"{fn.__name__.rsplit('_', 1)[1]}-{args}" for fn, args, _ in CLOSED_FORMS]
)
def test_closed_forms_match_reference_records(fn, args, spec):
    records = fn(*args)
    assert_records_match(records, reference_records([r.point.vector for r in records], spec, "W"))
    families = [r.family is not None for r in records]
    assert families == [False] * (len(records) - 1) + [args == (0.3, 0.0, 0.0, 0.3)]


@pytest.mark.parametrize("operator", ["W", "V"])
@pytest.mark.parametrize(
    "scenario", [*SCENARIOS, FAMILY], ids=lambda s: "-".join([s.name, *map(str, s.params.values())])
)
def test_search_records_match_reference_records(scenario, operator):
    spec = build_algebra(scenario)
    got = solve_fixed_points_numeric(spec, operator)
    assert_records_match(got, reference_records([r.point.vector for r in got], spec, operator))


def test_unknown_operator_is_rejected():
    spec = random_stochastic(2, 1, 0)
    z = Element.from_vector([0.2, 0.3, 0.5], 2)
    with pytest.raises(ValueError, match="operator"):
        solve_fixed_points_numeric(spec, "X")
    with pytest.raises(ValueError, match="operator"):
        make_record(z, spec, "Q")
    with pytest.raises(ValueError, match="operator"):
        _records(z.vector[None], spec, "w")


def test_tangent_basis_is_cached_and_read_only():
    for d in (2, 3, 4, 8):
        T = _simplex_tangent_basis(d)
        assert _simplex_tangent_basis(d) is T
        assert T.shape == (d, d - 1)
        assert np.abs(T.T @ T - np.eye(d - 1)).max() < 1e-12
        assert np.abs(T.sum(axis=0)).max() < 1e-12
        with pytest.raises(ValueError):
            T[0, 0] = 1.0
