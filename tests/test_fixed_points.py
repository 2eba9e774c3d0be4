import numpy as np
import pytest

from gonosim import (
    Element,
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
    random_stochastic,
    solve_fixed_points_numeric,
    stability_transfer_check,
)
from gonosim.errors import (
    DegenerateParameter,
    NotIdempotent,
    NotNormalizable,
    UncoveredCase,
)
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
        # both read mu = 1 within the same tolerance
        z0 = Element(np.array([0.2, 0.3]), np.array([0.25, 0.25]))
        assert len(closed_form_fixed_points_hemophilia(1.0 - 5e-13, 0.5)) == 1
        assert hemophilia_degenerate_limits(z0, 1.0 - 5e-13, 0.5).kind == "extinction"
        with pytest.raises(UncoveredCase):
            closed_form_fixed_points_hemophilia(1.0 - 5e-12, 0.5)
        with pytest.raises(UncoveredCase):
            hemophilia_degenerate_limits(z0, 1.0 - 5e-12, 0.5)


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

    def test_nonzero_nonneg_points_have_large_mass(self):
        # every non-negative nonzero fixed point of the doubling map has
        # coordinate sum at least 4
        for params in [(0.3, 0.0, 0.2, 0.3), (0.2, 0.2, 0.3, 0.3), (0.3, 0.2, 0.2, 0.2)]:
            for rec in closed_form_fixed_points_type21(*params):
                v = rec.point.vector
                if np.abs(v).sum() > 1e-9 and np.all(v >= -1e-12):
                    assert omega(rec.point) >= 4.0 - 1e-9
