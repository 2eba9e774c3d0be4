import numpy as np
import pytest

from gonosim import (
    AlgebraSpec,
    Element,
    FixedPointRecord,
    apply_V,
    apply_W,
    classify_spectrum,
    closed_form_fixed_points_hemophilia,
    closed_form_fixed_points_type11,
    closed_form_fixed_points_type21,
    idempotent_correspondence,
    jacobian_V,
    jacobian_W,
    make_record,
    multiply,
    normalize_fixed_point,
    omega,
    opposite,
    random_stochastic,
    solve_fixed_points_numeric,
    stability_transfer_check,
    swap_map,
)
from gonosim.errors import (
    AbsorbedToO,
    DegenerateParameter,
    NotIdempotent,
    NotNormalizable,
    NotStochastic,
    ShapeMismatch,
    UncoveredCase,
)
from gonosim.fixed_points import DEDUP_TOL, RESIDUAL_TOL
from gonosim.scenarios import (
    hemophilia_degenerate_limits,
    hemophilia_spec,
    type11_spec,
    type21_spec,
)


def fd_jacobian_W(z, spec, h=1e-7):
    dim = spec.dim
    J = np.zeros((dim, dim))
    base = z.vector
    for j in range(dim):
        plus = base.copy()
        minus = base.copy()
        plus[j] += h
        minus[j] -= h
        fp = apply_W(Element.from_vector(plus, spec.n), spec).vector
        fm = apply_W(Element.from_vector(minus, spec.n), spec).vector
        J[:, j] = (fp - fm) / (2 * h)
    return J


class TestJacobians:
    def test_zero_at_origin(self):
        spec = random_stochastic(2, 2, 0)
        J = jacobian_W(Element.zero(spec), spec)
        assert np.all(J == 0.0)

    def test_lr_at_nonzero_fixed_point(self):
        spec = type11_spec(0.5)
        J = jacobian_W(Element.from_vector([2.0, 2.0], 1), spec)
        assert J == pytest.approx(np.array([[1.0, 1.0], [1.0, 1.0]]), abs=1e-12)
        eigs = np.sort(np.linalg.eigvals(J).real)
        assert eigs == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            spec = random_stochastic(1 + seed % 3, 1 + (seed // 3) % 3, seed)
            z = Element(rng.uniform(0.1, 2.0, spec.n), rng.uniform(0.1, 2.0, spec.nu))
            J = jacobian_W(z, spec)
            assert J == pytest.approx(fd_jacobian_W(z, spec), abs=1e-6)

    def test_v_jacobian_shape_and_constant_map(self):
        # the normalized type-(1,1) map is constant, so its tangent Jacobian is 0
        spec = type11_spec(0.3)
        J = jacobian_V(Element.from_vector([0.3, 0.7], 1), spec)
        assert J.shape == (1, 1)
        assert abs(J[0, 0]) < 1e-6

    def test_v_jacobian_where_V_is_undefined(self):
        with pytest.raises(NotStochastic):
            jacobian_V(Element.from_vector([1.0, 1.0], 1), AlgebraSpec(1, 1, [[[1.5]]], [[[-0.5]]]))
        # no male mass: W vanishes, so omega(W) = 0
        with pytest.raises(AbsorbedToO):
            jacobian_V(Element.from_vector([1.0, 0.0], 1), type11_spec(0.5))

    @pytest.mark.parametrize("jacobian", [jacobian_W, jacobian_V])
    @pytest.mark.parametrize("x, y", [([0.3], [0.3, 0.4]), ([0.3], [0.7])], ids=["mis_split", "short"])
    def test_state_of_another_type(self, jacobian, x, y):
        # a state of the right length split the wrong way, and one too short
        with pytest.raises(ShapeMismatch):
            jacobian(Element(x, y), random_stochastic(2, 1, 0))

    def test_classify_spectrum(self):
        assert classify_spectrum(np.array([0.5, -0.2])) == "exponentially_stable"
        assert classify_spectrum(np.array([1.5])) == "unstable"
        assert classify_spectrum(np.array([1.0 + 1e-12])) == "marginal"
        assert classify_spectrum(np.array([])) == "exponentially_stable"


class TestNumericSolver:
    def test_lr_w_points(self):
        spec = type11_spec(0.5)
        recs = solve_fixed_points_numeric(spec, "W")
        pts = sorted(tuple(np.round(r.point.vector, 6)) for r in recs)
        assert (0.0, 0.0) in pts
        assert any(p == pytest.approx((2.0, 2.0), abs=1e-6) for p in pts)
        for r in recs:
            assert r.residual < 1e-8

    def test_lr_v_point(self):
        spec = type11_spec(0.3)
        recs = solve_fixed_points_numeric(spec, "V")
        assert len(recs) == 1
        assert recs[0].point.vector == pytest.approx([0.3, 0.7], abs=1e-8)
        assert recs[0].stability_v == "exponentially_stable"

    def test_family_collapses_to_one_record(self):
        spec = type21_spec(0.3, 0.0, 0.0, 0.3)
        recs = solve_fixed_points_numeric(spec, "W", grid=4, seed=1, random_starts=12)
        fams = [r for r in recs if r.family is not None]
        assert len(fams) == 1
        fam = fams[0].family
        # every point on the line is fixed
        for lam in (-0.05, 0.0, 0.08):
            v = fam.base_point + lam * fam.direction
            z = Element.from_vector(v, 2)
            assert np.abs(apply_W(z, spec).vector - v).sum() < 1e-9
        assert fams[0].point.vector[2] == pytest.approx(1.0 / 0.3, abs=1e-8)

    def test_V_family_collapses_to_one_record(self):
        # V is fixed on the whole segment x1 + x2 = 0.3, y = 0.7
        spec = type21_spec(0.3, 0.0, 0.0, 0.3)
        recs = solve_fixed_points_numeric(spec, "V")
        assert len(recs) == 1 and recs[0].family is not None
        fam = recs[0].family
        assert abs(fam.direction.sum()) < 1e-12  # within the simplex
        for lam in (-0.1, 0.0, 0.1):
            v = fam.base_point + lam * fam.direction
            z = Element.from_vector(v, 2)
            assert np.abs(apply_V(z, spec).vector - v).sum() < 1e-9
        assert recs[0].to_dict()["family"]["direction"] == fam.direction.tolist()

    @pytest.mark.parametrize("mu", [0.0, 0.2, 0.4, 0.6, 0.8])
    def test_hemophilia_root_keeps_structural_zero(self, mu):
        # Newton leaves x1 at +-1e-32; a negative sign used to drop stability_v
        spec = hemophilia_spec(mu, 1.0)
        closed = closed_form_fixed_points_hemophilia(mu, 1.0)[1]
        recs = [r for r in solve_fixed_points_numeric(spec, "W") if np.any(r.point.vector)]
        assert len(recs) == 1
        assert recs[0].point.vector[0] == 0.0
        assert np.abs(recs[0].point.vector - closed.point.vector).sum() < 1e-9
        assert recs[0].stability_v == closed.stability_v == "exponentially_stable"

    def test_diagnostics_attached(self):
        recs = solve_fixed_points_numeric(type11_spec(0.4), "W")
        assert recs[0].diagnostics["attempted"] >= recs[0].diagnostics["converged"]

    def test_records_serialize(self):
        recs = solve_fixed_points_numeric(type11_spec(0.4), "W")
        for r in recs:
            d = r.to_dict()
            assert isinstance(d["point"], list)
            assert d["stability_w"] in ("exponentially_stable", "unstable", "marginal")


class TestEigenSearch:
    """The exact W search of algebras with one female or one male type."""

    @pytest.mark.parametrize("n, nu", [(2, 1), (3, 1), (1, 3)])
    def test_real_root_count_is_exact(self, n, nu):
        pytest.importorskip("sympy")
        from exact_roots import exact_real_roots, rational_algebra

        for seed in range(6):
            spec, rows = rational_algebra(n, nu, seed)
            exact = exact_real_roots(n, nu, rows)
            recs = solve_fixed_points_numeric(spec, "W")
            assert recs[0].diagnostics["method"] == "eigen"
            assert len(recs) == len(exact)
            for z in exact:
                assert np.abs(apply_W(Element.from_vector(z, n), spec).vector - z).sum() < RESIDUAL_TOL
                assert min(np.abs(r.point.vector - z).sum() for r in recs) < DEDUP_TOL

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_both_orientations_give_the_swapped_set(self, n):
        spec = random_stochastic(n, 1, n)
        recs = solve_fixed_points_numeric(spec, "W")
        swapped = solve_fixed_points_numeric(opposite(spec), "W")
        phi = swap_map(spec)
        assert [r.diagnostics["method"] for r in (recs[0], swapped[0])] == ["eigen", "eigen"]
        assert len(recs) == len(swapped)
        for r, s in zip(recs, swapped):
            assert np.abs(phi @ r.point.vector - s.point.vector).sum() < 1e-12
        ys = [r.point.y[0] for r in recs[1:]]
        assert ys == sorted(ys) and np.all(recs[0].point.vector == 0.0)

    def test_triangular_transfer_matrix_keeps_its_structural_zeros(self):
        # A = [[0.3, 0], [0.2, 0.6]]: the eigenvector of 0.6 is (0, 1), exactly
        recs = solve_fixed_points_numeric(type21_spec(0.3, 0.2, 0.0, 0.6), "W")
        closed = closed_form_fixed_points_type21(0.3, 0.2, 0.0, 0.6)
        assert recs[0].diagnostics["method"] == "eigen" and len(recs) == len(closed) == 3
        for r, c in zip(recs, closed):
            assert np.array_equal(r.point.vector == 0.0, c.point.vector == 0.0)
            np.testing.assert_allclose(r.point.vector, c.point.vector, rtol=1e-12, atol=0.0)
            assert (r.stability_w, r.stability_v) == (c.stability_w, c.stability_v)

    def test_line_of_fixed_points_keeps_the_newton_search(self):
        # A = 0.3 I: the eigenvalue repeats, the grid search runs and one
        # family record holds the closed-form line
        recs = solve_fixed_points_numeric(type21_spec(0.3, 0.0, 0.0, 0.3), "W")
        assert [r.family is not None for r in recs] == [False, True]
        assert recs[0].diagnostics["method"] == "newton"
        assert recs[0].diagnostics["attempted"] == 3**3 + 9
        base = closed_form_fixed_points_type21(0.3, 0.0, 0.0, 0.3)[-1].point.vector
        assert recs[1].family.contains(base)

    def test_jordan_block_gives_its_single_root(self):
        # A = [[0.1, 0.1], [0, 0.1]] is defective: one eigenvector, (1, 0)
        from test_newton import assert_same_records, reference_search

        spec = type21_spec(0.1, 0.0, 0.1, 0.1)
        recs = solve_fixed_points_numeric(spec, "W")
        assert recs[0].diagnostics["method"] == "newton"
        assert_same_records(recs, reference_search(spec, "W"))
        assert [r.family for r in recs] == [None, None]
        np.testing.assert_allclose(recs[1].point.vector, [1.0 / 0.9, 0.0, 10.0], rtol=1e-9, atol=1e-12)
        assert all(r.residual < RESIDUAL_TOL for r in recs)

    def test_root_with_a_large_residual_is_polished_by_newton(self, monkeypatch):
        import gonosim.fixed_points as fp

        spec = type21_spec(0.3, 0.2, 0.25, 0.35)
        want = solve_fixed_points_numeric(spec, "W")
        eigen_roots = fp._eigen_roots

        def shifted(spec):
            roots = eigen_roots(spec)
            roots[1, 0] += 1e-6
            return roots

        monkeypatch.setattr(fp, "_eigen_roots", shifted)
        got = solve_fixed_points_numeric(spec, "W")
        diag = got[0].diagnostics
        assert (diag["method"], diag["attempted"], diag["converged"]) == ("eigen", 2, 2)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert np.abs(g.point.vector - w.point.vector).sum() < 1e-12
            assert g.residual < RESIDUAL_TOL

    def test_root_newton_rejects_is_dropped(self, monkeypatch):
        import gonosim.fixed_points as fp

        spec = type21_spec(0.3, 0.2, 0.25, 0.35)
        monkeypatch.setattr(fp, "_eigen_roots", lambda spec: np.array([[0.0, 0.0, 0.0], [1e9, 1e9, 1e9]]))
        recs = solve_fixed_points_numeric(spec, "W")
        assert len(recs) == 1 and not np.any(recs[0].point.vector)
        diag = recs[0].diagnostics
        assert diag["attempted"] == 1 and diag["converged"] == 0
        assert diag["attempted"] == diag["converged"] + diag["rejected_residual"] + diag["nonfinite"] + diag["diverged"]

    def test_V_search_runs_newton(self):
        assert solve_fixed_points_numeric(type21_spec(0.3, 0.2, 0.25, 0.35), "V")[0].diagnostics["method"] == "newton"


class TestClosedFormType11:
    def test_quarter(self):
        recs = closed_form_fixed_points_type11(0.25)
        nz = [r for r in recs if np.abs(r.point.vector).sum() > 1e-9]
        assert len(nz) == 1
        assert nz[0].point.vector == pytest.approx([4.0 / 3.0, 4.0], abs=1e-12)
        assert nz[0].residual < 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateParameter):
            closed_form_fixed_points_type11(1.0)
        with pytest.raises(DegenerateParameter):
            closed_form_fixed_points_type11(0.0)

    @pytest.mark.parametrize("gamma", [-0.5, 1.5])
    def test_gamma_outside_the_unit_interval_rejected(self, gamma):
        # no type-(1,1) algebra has this gamma, though the formula gives finite points
        with pytest.raises(DegenerateParameter):
            closed_form_fixed_points_type11(gamma)

    def test_matches_numeric(self):
        for gamma in (0.2, 0.5, 0.8):
            cf = closed_form_fixed_points_type11(gamma)
            num = solve_fixed_points_numeric(type11_spec(gamma), "W")
            for rec in cf:
                best = min(
                    float(np.abs(n.point.vector - rec.point.vector).sum()) for n in num
                )
                assert best < 1e-6


class TestClosedFormType21:
    @pytest.mark.parametrize(
        "params",
        [
            (0.3, 0.0, 0.2, 0.0),
            (0.0, 0.4, 0.0, 0.3),
            (0.2, 0.2, 0.3, 0.3),
            (0.3, 0.0, 0.0, 0.3),
            (0.2, 0.0, 0.0, 0.4),
            (0.3, 0.2, 0.0, 0.3),
            (0.4, 0.2, 0.0, 0.2),
            (0.3, 0.0, 0.2, 0.3),
            (0.3, 0.0, 0.2, 0.4),
            (0.3, 0.2, 0.2, 0.2),
        ],
    )
    def test_all_points_are_fixed(self, params):
        spec = type21_spec(*params)
        recs = closed_form_fixed_points_type21(*params)
        assert len(recs) >= 2  # origin plus at least one more
        for r in recs:
            assert r.residual < 1e-10

    def test_proportional_rows_point(self):
        # D = 0, all four parameters active: unique interior point
        recs = closed_form_fixed_points_type21(0.2, 0.2, 0.3, 0.3)
        nz = [r for r in recs if np.abs(r.point.vector).sum() > 1e-9]
        assert len(nz) == 1
        den = (0.2 + 0.2) * (1.0 - 0.2 - 0.3)
        assert nz[0].point.vector == pytest.approx(
            [0.2 / den, 0.2 / den, 1.0 / (0.2 + 0.3)], abs=1e-12
        )

    def test_empty_first_column_has_its_point(self):
        # A = [[0, 0.1], [0, 0.1]]: the eigenvalue 0.1 gives (5/9, 5/9, 10)
        recs = closed_form_fixed_points_type21(0.0, 0.0, 0.1, 0.1)
        pts = [r.point.vector for r in recs]
        assert len(pts) == 2 and not pts[0].any()
        assert pts[1] == pytest.approx([5 / 9, 5 / 9, 10.0], rel=1e-12)
        assert recs[1].residual < 1e-12

    def test_equal_male_shares(self):
        # g = d: the second eigenvector sums to zero and gives no point
        recs = closed_form_fixed_points_type21(0.3, 0.2, 0.25, 0.25)
        pts = [r.point.vector for r in recs]
        assert len(pts) == 2 and not pts[0].any()
        assert pts[1] == pytest.approx([10 / 9, 8 / 9, 2.0], rel=1e-12)
        assert all(r.residual < 1e-12 and r.family is None for r in recs)

    def test_identity_transfer_matrix_fixes_only_the_origin(self):
        # A = I leaves no male offspring, so y' = 0 and only the origin is fixed
        recs = closed_form_fixed_points_type21(1.0, 0.0, 0.0, 1.0)
        assert len(recs) == 1 and not recs[0].point.vector.any()

    def test_points_in_increasing_y(self):
        # the triangular mode g1 < d2 has its points at y = 1/d2 < 1/g1
        ys = [r.point.vector[2] for r in closed_form_fixed_points_type21(0.1, 0.0, 0.3, 0.7)]
        assert ys[0] == 0.0 and ys[1:] == sorted(ys[1:])
        assert ys[1:] == pytest.approx([1 / 0.7, 1 / 0.1], rel=1e-12)

    def test_nearly_equal_diagonal_keeps_both_points(self):
        # g1 and d2 a little apart: two distinct eigenvalues, two points, no line
        g1, d2 = 0.3, 0.3000001
        recs = closed_form_fixed_points_type21(g1, 0.0, 0.0, d2)
        pts = [r.point.vector for r in recs]
        assert len(pts) == 3 and not pts[0].any()
        assert pts[1] == pytest.approx([0.0, 1 / (1 - d2), 1 / d2], rel=1e-12)
        assert pts[2] == pytest.approx([1 / (1 - g1), 0.0, 1 / g1], rel=1e-12)
        assert all(r.residual < 1e-12 and r.family is None for r in recs)

    def test_nearly_repeated_eigenvalue_keeps_both_roots(self):
        # discriminant 4e-14: the eigenvalues 0.3 -+ 1e-7 have the eigenvectors
        # (1, -1), which sums to zero when g = d and gives no point, and (1, 1)
        recs = closed_form_fixed_points_type21(0.3, 1e-7, 1e-7, 0.3)
        assert len(recs) == 2
        q = 2 * (0.7 - 1e-7)
        assert recs[1].point.vector == pytest.approx([1 / q, 1 / q, 1 / (0.3 + 1e-7)], rel=1e-12)
        recs = closed_form_fixed_points_type21(0.3, 1e-7, 2e-7, 0.3)
        assert len(recs) == 3 and all(r.residual < 1e-12 for r in recs)

    def test_negative_parameter_rejected(self):
        with pytest.raises(DegenerateParameter):
            closed_form_fixed_points_type21(-0.1, 0.2, 0.2, 0.2)

    def test_overfull_row_rejected(self):
        with pytest.raises(DegenerateParameter):
            closed_form_fixed_points_type21(0.7, 0.5, 0.1, 0.1)


class TestClosedFormHemophilia:
    def test_full_lethality_only_origin(self):
        recs = closed_form_fixed_points_hemophilia(1.0, 1.0)
        assert len(recs) == 1
        assert np.all(recs[0].point.vector == 0.0)

    def test_eta_one_nonzero_point(self):
        recs = closed_form_fixed_points_hemophilia(0.5, 1.0)
        nz = [r for r in recs if np.abs(r.point.vector).sum() > 1e-9]
        assert len(nz) == 1
        c = 2.5
        assert nz[0].point.vector == pytest.approx(
            [0.0, c / 2, c / 2, 1.5 * c / 1.0], abs=1e-12
        )
        assert nz[0].residual < 1e-12

    def test_uncovered_case(self):
        with pytest.raises(UncoveredCase):
            closed_form_fixed_points_hemophilia(0.5, 0.5)

    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.8, 1.0 - 1e-6])
    def test_same_point_as_the_limit_prediction(self, mu):
        z0 = Element(np.array([0.2, 0.3]), np.array([0.25, 0.25]))
        point = hemophilia_degenerate_limits(z0, mu, 1.0).fixed_point
        assert closed_form_fixed_points_hemophilia(mu, 1.0)[1].point.vector.tolist() == list(point)

    def test_same_cases_as_the_limit_prediction(self):
        # both read mu = 1 exactly: below it every constant of the eta < 1
        # algebra is positive and the eta = 1 algebra has its non-zero point
        z0 = Element(np.array([0.2, 0.3]), np.array([0.25, 0.25]))
        assert len(closed_form_fixed_points_hemophilia(1.0, 0.5)) == 1
        assert hemophilia_degenerate_limits(z0, 1.0, 0.5).kind == "extinction"
        for mu in (1.0 - 5e-13, 1.0 - 5e-12):
            with pytest.raises(UncoveredCase):
                closed_form_fixed_points_hemophilia(mu, 0.5)
            with pytest.raises(UncoveredCase):
                hemophilia_degenerate_limits(z0, mu, 0.5)
            assert len(closed_form_fixed_points_hemophilia(mu, 1.0)) == 2
            assert hemophilia_degenerate_limits(z0, mu, 1.0).kind == "trichotomy"


class TestCorrespondences:
    def test_half_fixed_point_is_idempotent(self):
        spec = type11_spec(0.5)
        rec = closed_form_fixed_points_type11(0.5)[1]
        half = idempotent_correspondence(rec, spec)
        sq = multiply(half, half, spec)
        assert sq.vector == pytest.approx(half.vector, abs=1e-12)

    def test_non_fixed_point_rejected(self):
        spec = type11_spec(0.5)
        rec = make_record(Element.from_vector([1.0, 1.0], 1), spec, "W")
        with pytest.raises(NotIdempotent):
            idempotent_correspondence(rec, spec)

    def test_normalize(self):
        rec = closed_form_fixed_points_type11(0.5)[1]
        zn = normalize_fixed_point(rec)
        assert zn.vector == pytest.approx([0.5, 0.5], abs=1e-12)
        assert omega(zn) == pytest.approx(1.0)

    def test_normalize_negative_rejected(self):
        rec = make_record(Element.from_vector([-1.0, 2.0], 1), type11_spec(0.5))
        with pytest.raises(NotNormalizable, match="negative"):
            normalize_fixed_point(rec)

    def test_normalize_zero_rejected(self):
        rec = closed_form_fixed_points_type11(0.5)[0]
        with pytest.raises(NotNormalizable):
            normalize_fixed_point(rec)


class TestStabilityTransfer:
    def test_lr_unstable_w_stable_v(self):
        spec = type11_spec(0.5)
        rec = closed_form_fixed_points_type11(0.5)[1]
        rep = stability_transfer_check(rec, spec)
        assert rep.stability_w == "unstable"
        assert rep.w_spectral_radius == pytest.approx(2.0, abs=1e-9)
        assert rep.stability_v == "exponentially_stable"
        assert rep.v_spectral_radius < 1e-6
        assert rep.consistent

    def test_sweep_consistent(self):
        for gamma in (0.2, 0.4, 0.6, 0.8):
            spec = type11_spec(gamma)
            for rec in closed_form_fixed_points_type11(gamma)[1:]:
                assert stability_transfer_check(rec, spec).consistent

    def test_spectra_are_those_of_the_record(self):
        spec = type21_spec(0.3, 0.2, 0.2, 0.2)
        recs = [r for r in closed_form_fixed_points_type21(0.3, 0.2, 0.2, 0.2)[1:] if (r.point.vector >= 0).all()]
        assert recs
        for rec in recs:
            ref = make_record(rec.point, spec, "W")
            rep = stability_transfer_check(rec, spec)
            assert (rep.stability_w, rep.stability_v) == (ref.stability_w, ref.stability_v)
            assert rep.w_spectral_radius == float(np.abs(ref.w_eigenvalues).max())
            assert rep.v_spectral_radius == float(np.abs(ref.v_eigenvalues).max())

    def test_undefined_normalization_rejected(self):
        with pytest.raises(NotStochastic):
            spec = AlgebraSpec(1, 1, [[[-0.5]]], [[[1.5]]])
            stability_transfer_check(make_record(Element.from_vector([1.0, 1.0], 1), spec), spec)
        spec = type21_spec(0.3, 0.3, 0.3, 0.3)
        with pytest.raises(AbsorbedToO):  # no male mass
            stability_transfer_check(make_record(Element.from_vector([1.0, 0.0, 0.0], 2), spec), spec)

    def test_record_without_spectra_rejected(self):
        spec = type11_spec(0.5)
        rec = closed_form_fixed_points_type11(0.5)[1]
        with pytest.raises(ValueError):
            stability_transfer_check(FixedPointRecord(rec.point, "W", rec.residual), spec)

    def test_nonzero_nonneg_points_have_large_mass(self):
        # every non-negative nonzero fixed point of the doubling map has
        # coordinate sum at least 4
        for params in [(0.3, 0.0, 0.2, 0.3), (0.2, 0.2, 0.3, 0.3), (0.3, 0.2, 0.2, 0.2)]:
            for rec in closed_form_fixed_points_type21(*params):
                v = rec.point.vector
                if np.abs(v).sum() > 1e-9 and np.all(v >= -1e-12):
                    assert omega(rec.point) >= 4.0 - 1e-9


class TestMakeRecordRejects:
    @pytest.mark.parametrize("operator", ["W", "V"])
    def test_zero_algebra_has_no_V(self, operator):
        # every product vanishes: W is 0 at (1, 1) and at its normalization
        spec = AlgebraSpec(1, 1, [[[0.0]]], [[[0.0]]])
        with pytest.raises(AbsorbedToO):
            make_record(Element.from_vector([1.0, 1.0], 1), spec, operator)

    def test_state_of_another_type(self):
        with pytest.raises(ShapeMismatch):
            make_record(Element.from_vector([1.0, 1.0, 1.0], 2), type11_spec(0.5))
