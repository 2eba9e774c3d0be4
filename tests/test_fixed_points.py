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
from gonosim.fixed_points import DEDUP_TOL, RESIDUAL_TOL, _fixed_support
from gonosim.scenarios import (
    hemophilia_degenerate_limits,
    hemophilia_fixed_points,
    hemophilia_spec,
    type11_spec,
    type21_spec,
)
from test_properties import _reducible_algebra


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
    """The exact W and V searches of algebras with one female or one male type."""

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

    @pytest.mark.parametrize(
        "spec",
        [random_stochastic(n, 1, n) for n in (1, 2, 5)]
        + [
            hemophilia_spec(0.4, 1.0),  # x1 is never produced: one female type with two males
            _reducible_algebra(3, 2, 4, [False] * 3 + [True, False]),  # no y1: three females, one male
            _reducible_algebra(2, 3, 5, [True] + [False] * 4),  # no x1: one female, three males
        ],
        ids=["1", "2", "5", "hemophilia", "3,2_no_y1", "2,3_no_x1"],
    )
    def test_both_orientations_give_the_swapped_set(self, spec):
        # one orientation keeps one male type on the fixed support, the other
        # one female type; opposite and swap_map are the reference
        n, nu, S = spec.n, spec.nu, _fixed_support(spec)
        swapped_S = _fixed_support(opposite(spec))
        one_male = S[n:].sum() == 1
        if one_male:
            assert swapped_S[:nu].sum() == 1
        else:
            assert S[:n].sum() == 1 and swapped_S[nu:].sum() == 1
        recs = solve_fixed_points_numeric(spec, "W")
        swapped = solve_fixed_points_numeric(opposite(spec), "W")
        phi = swap_map(spec)
        assert [r.diagnostics["method"] for r in (recs[0], swapped[0])] == ["eigen", "eigen"]
        assert len(recs) == len(swapped)
        for r, s in zip(recs, swapped):
            assert np.abs(phi @ r.point.vector - s.point.vector).sum() < 1e-12
            assert not np.any(r.point.vector[~S])
        # the non-zero roots come in increasing order of the single coordinate
        c = n + np.flatnonzero(S[n:])[0] if one_male else np.flatnonzero(S[:n])[0]
        cs = [r.point.vector[c] for r in recs[1:]]
        assert cs == sorted(cs) and np.all(recs[0].point.vector == 0.0)

    def test_triangular_transfer_matrix_keeps_its_structural_zeros(self):
        # A = [[0.3, 0], [0.2, 0.6]]: the eigenvector of 0.6 is (0, 1), exactly
        recs = solve_fixed_points_numeric(type21_spec(0.3, 0.2, 0.0, 0.6), "W")
        closed = closed_form_fixed_points_type21(0.3, 0.2, 0.0, 0.6)
        assert recs[0].diagnostics["method"] == "eigen" and len(recs) == len(closed) == 3
        for r, c in zip(recs, closed):
            assert np.array_equal(r.point.vector == 0.0, c.point.vector == 0.0)
            np.testing.assert_allclose(r.point.vector, c.point.vector, rtol=1e-12, atol=0.0)
            assert (r.stability_w, r.stability_v) == (c.stability_w, c.stability_v)

    def test_line_of_fixed_points_is_one_family_record(self):
        # A = 0.3 I: the eigenvalue repeats, its one root lies on a line of
        # fixed points, and one family record holds the closed-form line
        recs = solve_fixed_points_numeric(type21_spec(0.3, 0.0, 0.0, 0.3), "W")
        assert [r.family is not None for r in recs] == [False, True]
        assert recs[0].diagnostics["method"] == "eigen"
        assert recs[0].diagnostics["attempted"] == 1
        base = closed_form_fixed_points_type21(0.3, 0.0, 0.0, 0.3)[-1].point.vector
        assert recs[1].family.contains(base)

    def test_plane_of_fixed_points_reports_the_line_found_through_its_root(self):
        # A = 0.3 I at type (3,1): the fixed points x1 + x2 + x3 = 1 / 0.7,
        # y = 1 / 0.3 form a plane.  The repeated eigenvalue gives one root,
        # and its family record is the one line _detect_family finds through
        # it, inside the plane; no plane descriptor is built
        gamma = np.zeros((3, 1, 3))
        gamma[range(3), 0, range(3)] = 0.3
        spec = AlgebraSpec(3, 1, gamma, np.full((3, 1, 1), 0.7))
        recs = solve_fixed_points_numeric(spec, "W")
        assert [r.family is not None for r in recs] == [False, True]
        assert recs[0].diagnostics["method"] == "eigen" and recs[0].diagnostics["attempted"] == 1
        fam = recs[1].family
        np.testing.assert_allclose(fam.base_point, [1 / 0.7, 0.0, 0.0, 1 / 0.3], rtol=1e-15)
        assert fam.direction[3] == 0.0 and abs(fam.direction.sum()) < 1e-12
        for t in (-1.0, 0.5):
            v = fam.base_point + t * fam.direction
            assert np.abs(apply_W(Element.from_vector(v, 3), spec).vector - v).sum() < RESIDUAL_TOL
        swapped = solve_fixed_points_numeric(opposite(spec), "W")
        assert [r.family is not None for r in swapped] == [False, True]
        np.testing.assert_allclose(swapped[1].family.base_point, swap_map(spec) @ fam.base_point, rtol=1e-15)

    def test_near_repeated_triangular_point_keeps_every_table_point(self):
        # |g1 - d2| = 1.6e-10: the two non-zero roots lie about 1e-7 apart, closer
        # than DEDUP_TOL, and each eigenvalue keeps its own root, as in the table
        params = (0.40033, 0.0, 0.00496, 0.40032999984)
        recs = solve_fixed_points_numeric(type21_spec(*params), "W")
        closed = closed_form_fixed_points_type21(*params)
        assert recs[0].diagnostics["method"] == "eigen" and len(recs) == len(closed) == 3
        for r, c in zip(recs, closed):
            np.testing.assert_allclose(r.point.vector, c.point.vector, rtol=1e-9, atol=1e-15)
        assert recs[1].point.vector[1] == 0.0 and recs[2].point.vector[1] < 0.0

    def test_jordan_block_gives_its_single_root(self):
        # A = [[0.1, 0.1], [0, 0.1]] is defective: one eigenvector, (1, 0)
        from test_newton import assert_same_records, reference_search

        spec = type21_spec(0.1, 0.0, 0.1, 0.1)
        recs = solve_fixed_points_numeric(spec, "W")
        assert recs[0].diagnostics["method"] == "eigen"
        assert_same_records(recs, reference_search(spec, "W"))
        assert [r.family for r in recs] == [None, None]
        np.testing.assert_allclose(recs[1].point.vector, [1.0 / 0.9, 0.0, 10.0], rtol=1e-9, atol=1e-12)
        assert all(r.residual < RESIDUAL_TOL for r in recs)

    def test_repeated_eigenvalue_whose_twin_gives_no_root_keeps_its_line(self):
        # A = 0.3 I with q = (0, 0.7): q.e1 = 0, so e1 gives no root, yet its
        # eigenvalue still repeats that of e2, whose root lies on the line
        # (t, 1 / 0.7, 1 / 0.3) of fixed points
        spec = AlgebraSpec(2, 1, [[[0.3, 0.0]], [[0.0, 0.3]]], [[[0.0]], [[0.7]]])
        for phi, alg in ((np.eye(3), spec), (swap_map(spec), opposite(spec))):
            recs = solve_fixed_points_numeric(alg, "W")
            assert [r.family is not None for r in recs] == [False, True]
            assert recs[0].diagnostics["method"] == "eigen"
            for t in (-2.0, 0.0, 5.0):
                assert recs[1].family.contains(phi @ [t, 1 / 0.7, 1 / 0.3])

    @pytest.mark.parametrize(
        "A, root",
        [
            ([[0.3, 0.1], [-0.1, 0.5]], [1.0, 1.0, 2.5]),  # LAPACK: 0.4 twice
            ([[0.3, -0.1], [0.1, 0.5]], [5.0, -5.0, 2.5]),  # LAPACK: 0.4 +- 2.4e-9 i
        ],
    )
    def test_defective_non_triangular_pair_gives_its_single_root(self, A, root):
        # A has the one eigenvalue 0.4 with one eigenvector; rounding may
        # return it as a conjugate pair, whose real parts are an eigenpair.
        # The reference Newton search creeps to this singular root linearly
        from test_newton import reference_search

        spec = AlgebraSpec(2, 1, np.transpose(A)[:, None, :], [[[0.6]], [[0.4]]])
        recs = solve_fixed_points_numeric(spec, "W")
        want = reference_search(spec, "W")
        assert recs[0].diagnostics["method"] == "eigen" and len(recs) == len(want) == 2
        for r, w in zip(recs, want):
            assert np.abs(r.point.vector - w.point.vector).sum() < DEDUP_TOL and r.residual < RESIDUAL_TOL
        np.testing.assert_allclose(recs[1].point.vector, root, rtol=1e-12)

    def test_defective_pair_split_real_by_rounding_lists_only_its_root(self):
        # A = [[0.25, 0.25], [-0.25, 0.75]] is defective in binary too
        # ((a - d)^2 + 4 b c = 0 exactly), yet LAPACK splits its eigenvalue
        # 0.5 into two reals 1e-8 apart.  That split is wider than tol, so
        # it may give two records; each is the one root (1, 1, 2) to rounding
        spec = AlgebraSpec(2, 1, [[[0.25, -0.25]], [[0.25, 0.75]]], [[[0.6]], [[0.4]]])
        recs = solve_fixed_points_numeric(spec, "W")
        assert recs[0].diagnostics["method"] == "eigen" and 2 <= len(recs) <= 3
        for r in recs[1:]:
            assert np.abs(r.point.vector - [1.0, 1.0, 2.0]).sum() < DEDUP_TOL and r.residual < RESIDUAL_TOL

    def test_root_with_a_large_residual_is_polished_by_newton(self, monkeypatch):
        import gonosim.fixed_points as fp

        spec = type21_spec(0.3, 0.2, 0.25, 0.35)
        want = solve_fixed_points_numeric(spec, "W")
        eigen_roots = fp._eigen_roots

        def shifted(spec, S):
            roots, repeated = eigen_roots(spec, S)
            roots[1, 0] += 1e-6
            return roots, repeated

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
        roots = np.array([[0.0, 0.0, 0.0], [1e9, 1e9, 1e9]])
        monkeypatch.setattr(fp, "_eigen_roots", lambda spec, S: (roots.copy(), np.zeros(2, dtype=bool)))
        recs = solve_fixed_points_numeric(spec, "W")
        assert len(recs) == 1 and not np.any(recs[0].point.vector)
        diag = recs[0].diagnostics
        assert diag["attempted"] == 1 and diag["converged"] == 0
        assert diag["attempted"] == diag["converged"] + diag["rejected_residual"] + diag["nonfinite"] + diag["diverged"]

    def test_V_search_path_follows_the_fixed_support(self):
        assert solve_fixed_points_numeric(type21_spec(0.3, 0.2, 0.25, 0.35), "V")[0].diagnostics["method"] == "eigen"
        assert solve_fixed_points_numeric(random_stochastic(2, 2, 0), "V")[0].diagnostics["method"] == "newton"

    def test_V_search_holds_the_unstable_point_inside_the_simplex(self):
        # the W roots besides the origin are (0, 2, 2) and (1.000001, 0, 1e6);
        # scaled to unit sum, both are V fixed points, the second one unstable
        recs = solve_fixed_points_numeric(type21_spec(1e-6, 0.0, 0.0, 0.5), "V")
        assert [r.diagnostics["method"] for r in recs] == ["eigen", "eigen"]
        assert [r.stability_v for r in recs] == ["exponentially_stable", "unstable"]
        np.testing.assert_allclose(recs[0].point.vector, [0.0, 0.5, 0.5], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(recs[1].point.vector, [1e-6, 0.0, 0.999999], rtol=1e-12, atol=0.0)
        assert all(r.residual < RESIDUAL_TOL for r in recs)


class TestFixedSupport:
    """The exact W search on the coordinates a fixed point can hold."""

    @pytest.mark.parametrize(
        "mu, eta, support",
        [
            (0.4, 1.0, [False, True, True, True]),  # x1 is never produced
            (1.0, 0.8, [False] * 4),  # x1 and y1 go, then x2, then y2
            (1.0, 1.0, [False] * 4),
            (0.5, 0.5, [True] * 4),
        ],
    )
    def test_hemophilia_support(self, mu, eta, support):
        assert _fixed_support(hemophilia_spec(mu, eta)).tolist() == support

    GRID = [(k / 10, 1.0) for k in range(11)] + [(1.0, k / 10) for k in range(11)]

    @pytest.mark.parametrize("mu, eta", GRID)
    def test_hemophilia_grid_is_exact(self, mu, eta):
        recs = solve_fixed_points_numeric(hemophilia_spec(mu, eta), "W")
        points, _ = hemophilia_fixed_points(mu, eta)
        assert recs[0].diagnostics["method"] == "eigen"
        assert len(recs) == len(points)
        for r, p in zip(recs, points):
            assert np.array_equal(r.point.vector == 0.0, np.array(p) == 0.0)
            np.testing.assert_allclose(r.point.vector, p, rtol=1e-12, atol=0.0)
            assert r.residual < RESIDUAL_TOL
        # the records and their spectra are those of the full algebra
        assert all(len(r.w_eigenvalues) == 4 for r in recs)

    def test_no_female_left_gives_the_origin_alone(self):
        recs = solve_fixed_points_numeric(hemophilia_spec(1.0, 0.8), "W")
        assert len(recs) == 1 and not np.any(recs[0].point.vector)
        diag = recs[0].diagnostics
        assert (diag["method"], diag["attempted"], diag["converged"]) == ("eigen", 0, 0)

    @pytest.mark.parametrize(
        "spec",
        [hemophilia_spec(0.4, 1.0), opposite(type21_spec(0.3, 0.2, 0.25, 0.35)), random_stochastic(1, 3, 1)],
        ids=["hemophilia", "opposite_type21", "random_1_3"],
    )
    def test_the_W_search_builds_no_algebra(self, spec, monkeypatch):
        # the transfer matrix is read off the kernel: no restricted, opposite
        # or swapped algebra is built on the way
        built = []
        post_init = AlgebraSpec.__post_init__

        def counted(self):
            built.append((self.n, self.nu))
            post_init(self)

        want = [r.to_dict() for r in solve_fixed_points_numeric(spec, "W")]
        monkeypatch.setattr(AlgebraSpec, "__post_init__", counted)
        recs = solve_fixed_points_numeric(spec, "W")
        assert recs[0].diagnostics["method"] == "eigen"
        assert built == []
        assert [r.to_dict() for r in recs] == want

    @pytest.mark.parametrize(
        "n, nu, drop, restricted",
        [(2, 2, (0,), (1, 2)), (3, 2, (3,), (3, 1)), (2, 3, (1,), (1, 3))],
    )
    def test_real_root_count_of_a_restriction_is_exact(self, n, nu, drop, restricted):
        pytest.importorskip("sympy")
        from exact_roots import exact_real_roots, rational_algebra

        for seed in range(3):
            spec, rows = rational_algebra(n, nu, seed, drop)
            S = _fixed_support(spec)
            assert (int(S[:n].sum()), int(S[n:].sum())) == restricted
            exact = exact_real_roots(n, nu, rows)
            recs = solve_fixed_points_numeric(spec, "W")
            assert recs[0].diagnostics["method"] == "eigen"
            assert len(recs) == len(exact)
            for z in exact:
                assert not np.any(z[~S])
                assert min(np.abs(r.point.vector - z).sum() for r in recs) < DEDUP_TOL


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


class TestNonFiniteAlgebra:
    """The searches and the record pass reject a non-finite algebra before any other check."""

    SPECS = [
        AlgebraSpec(1, 1, [[[np.nan]]], [[[0.5]]]),
        AlgebraSpec(2, 1, [[[0.2, np.inf]], [[0.1, 0.3]]], [[[0.3]], [[0.4]]]),
    ]

    @pytest.mark.parametrize("operator", ["W", "V"])
    @pytest.mark.parametrize("spec", SPECS, ids=["nan", "inf"])
    def test_search(self, spec, operator):
        with pytest.raises(ValueError, match="algebra has a non-finite structure constant"):
            solve_fixed_points_numeric(spec, operator)

    @pytest.mark.parametrize("operator", ["W", "V"])
    @pytest.mark.parametrize("spec", SPECS, ids=["nan", "inf"])
    def test_record(self, spec, operator):
        with pytest.raises(ValueError, match="algebra has a non-finite structure constant"):
            make_record(Element.from_vector(np.ones(spec.dim), spec.n), spec, operator)

    def test_before_the_operator_check(self):
        with pytest.raises(ValueError, match="non-finite structure constant"):
            solve_fixed_points_numeric(self.SPECS[0], "X")
