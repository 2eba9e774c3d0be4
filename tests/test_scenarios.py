from fractions import Fraction

import numpy as np
import pytest

from gonosim import (
    Element,
    IterationOptions,
    Scenario,
    apply_V,
    apply_W,
    build_algebra,
    classify_eset,
    closed_form_trajectory_type11,
    hemophilia_degenerate_limits,
    hemophilia_lyapunov,
    iterate,
    predict_limit_type21,
    validate,
)
from gonosim.errors import (
    DegenerateParameter,
    EqualModulusEigenvalues,
    InvalidParameter,
    MaleExtinction,
    UncoveredCase,
)
from gonosim.scenarios import hemophilia_spec, type11_spec, type21_spec


def rl(g1, g2, d1, d2):
    return Scenario(
        "recessive_lethal",
        {"gamma1": g1, "gamma2": g2, "delta1": d1, "delta2": d2},
    )


class TestBuildAlgebra:
    def test_lr_lethal(self):
        spec = build_algebra(Scenario("lr_lethal", {"gamma": 0.3}))
        assert (spec.n, spec.nu) == (1, 1)
        assert spec.gamma[0, 0, 0] == pytest.approx(0.3)

    def test_lr_mutation_derived_coefficient(self):
        spec = build_algebra(Scenario("lr_mutation", {"mu": 0.4, "eta": 0.0}))
        assert spec.gamma[0, 0, 0] == pytest.approx(0.5)
        spec = build_algebra(Scenario("lr_mutation", {"mu": 0.4, "eta": 1.0}))
        assert spec.gamma[0, 0, 0] == pytest.approx(0.0)

    def test_hemophilia_base_case_rows(self):
        spec = hemophilia_spec(0.0, 0.0)
        # healthy female x healthy male: half daughters healthy, half sons healthy
        assert spec.gamma[0, 0] == pytest.approx([0.5, 0.0])
        assert spec.gamma_tilde[0, 0] == pytest.approx([0.5, 0.0])

    def test_hemophilia_stochastic_across_parameters(self):
        for mu in (0.0, 0.25, 0.5, 1.0):
            for eta in (0.0, 0.5, 1.0):
                assert validate(hemophilia_spec(mu, eta)).is_stochastic

    def test_x_inactivation_swaps_sexes(self):
        s = Scenario(
            "x_inactivation",
            {"gamma1": 0.2, "gamma2": 0.3, "delta1": 0.1, "delta2": 0.2},
        )
        spec = build_algebra(s)
        assert (spec.n, spec.nu) == (1, 2)
        assert validate(spec).is_stochastic

    def test_unknown_scenario(self):
        with pytest.raises(InvalidParameter):
            build_algebra(Scenario("nonsense", {}))

    def test_wrong_parameter_set(self):
        with pytest.raises(InvalidParameter):
            build_algebra(Scenario("lr_lethal", {"gamma": 0.3, "extra": 1.0}))
        with pytest.raises(InvalidParameter):
            build_algebra(Scenario("hemophilia", {"mu": 0.3}))

    def test_out_of_range(self):
        with pytest.raises(InvalidParameter):
            build_algebra(Scenario("lr_lethal", {"gamma": 1.5}))
        with pytest.raises(InvalidParameter):
            build_algebra(rl(0.8, 0.5, 0.1, 0.1))


class TestClassifyEset:
    def test_odd_pattern(self):
        cls = classify_eset(
            Element.from_vector([0.0, 0.6, 0.4], 2), rl(0.0, 0.3, 0.4, 0.0)
        )
        assert cls.kind == "infinite_odd"

    def test_even_pattern(self):
        cls = classify_eset(
            Element.from_vector([0.6, 0.0, 0.4], 2), rl(0.0, 0.3, 0.4, 0.0)
        )
        assert cls.kind == "infinite_even"

    def test_all_positive_steps(self):
        cls = classify_eset(
            Element.from_vector([0.5, 0.0, 0.5], 2), rl(0.4, 0.0, 0.2, 0.3)
        )
        assert cls.kind == "infinite_all_positive_steps"

    def test_generic_interior_is_finite_empty(self):
        cls = classify_eset(
            Element.from_vector([0.3, 0.3, 0.4], 2), rl(0.2, 0.2, 0.3, 0.3)
        )
        assert cls.kind == "finite"
        assert cls.t0 == 0
        assert cls.eset_prefix == ()

    def test_finite_with_initial_zero(self):
        # x2 starts at 0 but reappears at step 1 since g2 > 0
        cls = classify_eset(
            Element.from_vector([0.5, 0.0, 0.5], 2), rl(0.2, 0.2, 0.3, 0.3)
        )
        assert cls.kind == "finite"
        assert cls.t0 == 1
        assert cls.eset_prefix == (0,)

    def test_male_extinction(self):
        with pytest.raises(MaleExtinction):
            classify_eset(Element.from_vector([0.5, 0.5, 0.0], 2), rl(0.2, 0.2, 0.3, 0.3))

    def test_wrong_scenario(self):
        with pytest.raises(InvalidParameter):
            classify_eset(
                Element.from_vector([0.5, 0.5], 1), Scenario("lr_lethal", {"gamma": 0.5})
            )

    def test_zero_pattern_matches_exact_arithmetic(self):
        # replay the recursion in exact rationals and compare zero sets
        rng = np.random.default_rng(0)
        params_list = [
            (Fraction(1, 5), Fraction(1, 5), Fraction(3, 10), Fraction(3, 10)),
            (Fraction(0), Fraction(3, 10), Fraction(2, 5), Fraction(0)),
            (Fraction(2, 5), Fraction(0), Fraction(1, 5), Fraction(3, 10)),
        ]
        starts = [
            (Fraction(0), Fraction(3, 5), Fraction(2, 5)),
            (Fraction(3, 5), Fraction(0), Fraction(2, 5)),
            (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
        ]
        for g1, g2, d1, d2 in params_list:
            g, d = 1 - g1 - g2, 1 - d1 - d2
            for x1, x2, y in starts:
                exact_zeros = set()
                a, b, c = x1, x2, y
                for t in range(13):
                    if b == 0:
                        exact_zeros.add(t)
                    a, b, c = (g1 * a + d1 * b) * c, (g2 * a + d2 * b) * c, (g * a + d * b) * c
                s = rl(float(g1), float(g2), float(d1), float(d2))
                cls = classify_eset(Element.from_vector([float(x1), float(x2), float(y)], 2), s)
                if cls.kind == "finite":
                    assert set(cls.eset_prefix) & set(range(13)) == exact_zeros
                elif cls.kind == "infinite_all_positive_steps":
                    assert exact_zeros >= set(range(1, 13))
                elif cls.kind == "infinite_odd":
                    assert exact_zeros == {t for t in range(13) if t % 2 == 1}
                else:
                    assert exact_zeros == {t for t in range(13) if t % 2 == 0}
        del rng


class TestPredictLimit:
    def test_distinct_eigenvalues_matches_iteration(self):
        s = rl(0.2, 0.2, 0.2, 0.2)
        z0 = Element.from_vector([0.3, 0.3, 0.4], 2)
        pred = predict_limit_type21(z0, s)
        assert pred.kind == "distinct_eigenvalues"
        assert pred.w_limit == "zero"
        assert sorted([pred.lambda1, pred.lambda2]) == pytest.approx([0.0, 0.4], abs=1e-12)
        spec = build_algebra(s)
        z = z0
        for _ in range(100):
            z = apply_V(z, spec)
        assert z.vector == pytest.approx(pred.v_limit, abs=1e-9)
        assert sum(pred.v_limit) == pytest.approx(1.0, abs=1e-12)

    def test_single_type_tail(self):
        s = rl(0.4, 0.0, 0.2, 0.3)
        z0 = Element.from_vector([0.5, 0.0, 0.5], 2)
        pred = predict_limit_type21(z0, s)
        assert pred.kind == "single_type_tail"
        assert pred.threshold == pytest.approx(1.0 / (0.4 * 0.6), abs=1e-12)
        assert pred.w_limit == "zero"
        assert pred.v_limit == pytest.approx((0.4, 0.0, 0.6), abs=1e-12)
        spec = build_algebra(s)
        z = z0
        for _ in range(60):
            z = apply_V(z, spec)
        assert z.vector == pytest.approx(pred.v_limit, abs=1e-9)

    def test_alternating_tail_matches_iteration(self):
        s = rl(0.0, 0.3, 0.4, 0.0)
        z0 = Element.from_vector([0.0, 0.6, 0.4], 2)
        pred = predict_limit_type21(z0, s)
        assert pred.kind == "alternating_tail"
        assert pred.w_limit == "zero"
        odd, even = pred.v_period2
        assert odd == pytest.approx((0.4, 0.0, 0.6), abs=1e-12)
        assert even == pytest.approx((0.0, 0.3, 0.7), abs=1e-12)
        spec = build_algebra(s)
        z = z0
        states = [z.vector]
        for _ in range(41):
            z = apply_V(z, spec)
            states.append(z.vector)
        assert states[41] == pytest.approx(odd, abs=1e-9)
        assert states[40] == pytest.approx(even, abs=1e-9)

    def test_repeated_eigenvalue_branch(self):
        s = rl(0.3, 0.2, 0.0, 0.3)
        z0 = Element.from_vector([0.3, 0.3, 0.4], 2)
        pred = predict_limit_type21(z0, s)
        assert pred.kind == "repeated_eigenvalue"
        assert pred.v_limit == pytest.approx((0.0, 0.3, 0.7), abs=1e-12)
        # the repeated eigenvalue makes convergence O(1/t); Richardson
        # extrapolation 2 z(2t) - z(t) removes the leading error term
        spec = build_algebra(s)
        z = z0
        snapshots = {}
        for step in range(1, 401):
            z = apply_V(z, spec)
            if step in (200, 400):
                snapshots[step] = z.vector
        extrapolated = 2.0 * snapshots[400] - snapshots[200]
        assert extrapolated == pytest.approx(pred.v_limit, abs=1e-4)

    def test_equal_modulus_raises(self):
        s = rl(0.0, 0.3, 0.4, 0.0)
        z0 = Element.from_vector([0.3, 0.3, 0.4], 2)
        with pytest.raises(EqualModulusEigenvalues):
            predict_limit_type21(z0, s)

    def test_mismatched_classification_rejected(self):
        s = rl(0.2, 0.2, 0.2, 0.2)
        z0 = Element.from_vector([0.3, 0.3, 0.4], 2)
        wrong = classify_eset(Element.from_vector([0.5, 0.0, 0.5], 2), rl(0.4, 0.0, 0.2, 0.3))
        with pytest.raises(InvalidParameter):
            predict_limit_type21(z0, s, wrong)

    def test_serializes(self):
        s = rl(0.2, 0.2, 0.2, 0.2)
        d = predict_limit_type21(Element.from_vector([0.3, 0.3, 0.4], 2), s).to_dict()
        assert d["kind"] == "distinct_eigenvalues"
        assert isinstance(d["v_limit"], list)


class TestType11ClosedForm:
    def test_fixed_point_is_invariant(self):
        z = closed_form_trajectory_type11(Element.from_vector([2.0, 2.0], 1), 0.5, 5)
        assert z.vector == pytest.approx([2.0, 2.0], abs=1e-12)

    def test_matches_direct_iteration(self):
        spec = type11_spec(0.3)
        z0 = Element.from_vector([1.2, 0.9], 1)
        z = z0
        for t in range(1, 7):
            z = apply_W(z, spec)
            cf = closed_form_trajectory_type11(z0, 0.3, t)
            assert cf.vector == pytest.approx(z.vector, rel=1e-10, abs=1e-300)

    def test_small_start_decays(self):
        z = closed_form_trajectory_type11(Element.from_vector([0.5, 0.5], 1), 0.5, 8)
        assert np.abs(z.vector).sum() < 1e-30

    def test_invalid_arguments(self):
        z0 = Element.from_vector([1.0, 1.0], 1)
        with pytest.raises(DegenerateParameter):
            closed_form_trajectory_type11(z0, 1.0, 3)
        with pytest.raises(ValueError):
            closed_form_trajectory_type11(z0, 0.5, 0)


class TestHemophilia:
    def test_lyapunov_doubly_exponential_bound(self):
        rng = np.random.default_rng(3)
        spec = hemophilia_spec(0.5, 0.5)
        for _ in range(20):
            z = Element.from_vector(rng.dirichlet(np.ones(4)), 2)
            for n in range(1, 9):
                z = apply_W(z, spec)
                assert hemophilia_lyapunov(z) <= 0.25 ** (2**n - 1) * 0.25 + 1e-12

    def test_lyapunov_shape_check(self):
        with pytest.raises(InvalidParameter):
            hemophilia_lyapunov(Element.from_vector([1.0, 1.0], 1))

    def test_full_lethality_extinct_at_two(self):
        pred = hemophilia_degenerate_limits(
            Element.from_vector([0.25, 0.25, 0.25, 0.25], 2), 1.0, 1.0
        )
        assert pred.kind == "extinction" and pred.extinction_step == 2
        spec = hemophilia_spec(1.0, 1.0)
        z = Element.from_vector([0.25, 0.25, 0.25, 0.25], 2)
        z = apply_W(apply_W(z, spec), spec)
        assert np.all(z.vector == 0.0)

    def test_sterile_but_viable_extinct_at_three(self):
        pred = hemophilia_degenerate_limits(
            Element.from_vector([0.25, 0.25, 0.25, 0.25], 2), 1.0, 0.3
        )
        assert pred.extinction_step == 3
        spec = hemophilia_spec(1.0, 0.3)
        z = Element.from_vector([0.25, 0.25, 0.25, 0.25], 2)
        z2 = apply_W(apply_W(z, spec), spec)
        assert np.abs(z2.vector).sum() > 0.0
        z3 = apply_W(z2, spec)
        assert np.all(z3.vector == 0.0)

    def test_trichotomy_zero_side(self):
        z0 = Element.from_vector([0.25, 0.25, 0.25, 0.25], 2)
        pred = hemophilia_degenerate_limits(z0, 0.5, 1.0)
        assert pred.kind == "trichotomy"
        assert pred.w_limit == "zero"
        spec = hemophilia_spec(0.5, 1.0)
        traj = iterate(z0, spec, "W", IterationOptions(max_steps=40))
        assert np.abs(traj.states[-1].vector).sum() < 1e-12

    def test_trichotomy_divergent_side(self):
        z0 = Element.from_vector([20.0, 20.0, 20.0, 20.0], 2)
        pred = hemophilia_degenerate_limits(z0, 0.5, 1.0)
        assert pred.w_limit == "infinity"
        spec = hemophilia_spec(0.5, 1.0)
        traj = iterate(z0, spec, "W", IterationOptions(max_steps=40))
        assert traj.outcome.kind == "divergent"

    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.7])
    def test_trichotomy_matches_iteration_on_random_states(self, mu):
        rng = np.random.default_rng(int(mu * 10) + 40)
        spec = hemophilia_spec(mu, 1.0)
        thr = (3.0 - mu) / (2.0 * (1.0 - mu))
        seen = set()
        for _ in range(200):
            d = rng.dirichlet(np.ones(4))
            w = apply_W(Element.from_vector(d, 2), spec)
            u1 = w.x[1] * w.y.sum() / (3.0 - mu)
            # scale so that u(1), quartic in the scale, lands on either side of 1/k
            z0 = Element.from_vector(d * (rng.uniform(0.3, 3.0) * thr / u1) ** 0.25, 2)
            pred = hemophilia_degenerate_limits(z0, mu, 1.0)
            assert pred.threshold == pytest.approx(thr, rel=1e-15)
            traj = iterate(z0, spec, "W")
            if pred.w_limit == "zero":
                assert traj.outcome.kind in ("extinct", "numerically_extinct", "converged")
                assert np.abs(traj.states[-1].vector).sum() < 1e-6
            else:
                assert pred.w_limit == "infinity"
                assert traj.outcome.kind == "divergent"
            seen.add(pred.w_limit)
        assert seen == {"zero", "infinity"}

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_trichotomy_boundary_is_the_fixed_point(self, mu):
        spec = hemophilia_spec(mu, 1.0)
        c = 3.0 - mu
        fp = [0.0, c / 2.0, c / 2.0, (1.0 + mu) * c / (2.0 * (1.0 - mu))]
        z0 = Element.from_vector(fp, 2)
        pred = hemophilia_degenerate_limits(z0, mu, 1.0)
        assert pred.boundary and pred.w_limit == "nonzero"
        assert pred.product == pytest.approx(pred.threshold, abs=1e-12)
        traj = iterate(z0, spec, "W")
        assert traj.outcome.kind == "converged"
        assert traj.outcome.point.vector == pytest.approx(fp, abs=1e-9)

    def test_normalized_orbit_constant_from_step_two(self):
        rng = np.random.default_rng(4)
        spec = hemophilia_spec(0.5, 1.0)
        pred = hemophilia_degenerate_limits(
            Element.from_vector([0.25, 0.25, 0.25, 0.25], 2), 0.5, 1.0
        )
        for _ in range(10):
            z = Element.from_vector(rng.dirichlet(np.ones(4)), 2)
            z = apply_V(apply_V(z, spec), spec)
            assert z.vector == pytest.approx(pred.v_constant, abs=1e-12)
            z = apply_V(z, spec)
            assert z.vector == pytest.approx(pred.v_constant, abs=1e-12)

    def test_constant_state_from_step_one_without_healthy_females(self):
        spec = hemophilia_spec(0.5, 1.0)
        pred = hemophilia_degenerate_limits(
            Element.from_vector([0.0, 0.5, 0.25, 0.25], 2), 0.5, 1.0
        )
        z = apply_V(Element.from_vector([0.0, 0.5, 0.25, 0.25], 2), spec)
        assert z.vector == pytest.approx(pred.v_constant, abs=1e-12)

    def test_fixed_point_prediction_is_fixed(self):
        pred = hemophilia_degenerate_limits(
            Element.from_vector([0.25, 0.25, 0.25, 0.25], 2), 0.5, 1.0
        )
        spec = hemophilia_spec(0.5, 1.0)
        fp = Element.from_vector(np.array(pred.fixed_point), 2)
        assert apply_W(fp, spec).vector == pytest.approx(fp.vector, abs=1e-12)

    def test_uncovered_case(self):
        with pytest.raises(UncoveredCase):
            hemophilia_degenerate_limits(
                Element.from_vector([0.25, 0.25, 0.25, 0.25], 2), 0.5, 0.5
            )
