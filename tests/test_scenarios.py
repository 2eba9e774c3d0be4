import itertools
import json
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
    closed_form_fixed_points_hemophilia,
    closed_form_fixed_points_type11,
    closed_form_trajectory_type11,
    hemophilia_degenerate_limits,
    hemophilia_lyapunov,
    iterate,
    predict_limit_type21,
    validate,
)
from gonosim.errors import (
    DegenerateParameter,
    InvalidParameter,
    MaleExtinction,
    ShapeMismatch,
    UncoveredCase,
)
from gonosim.scenarios import (
    SCENARIOS,
    hemophilia_fixed_points,
    hemophilia_spec,
    type11_spec,
    type21_fixed_points,
    type21_spec,
    verify_prediction,
)
from test_cli import _criterion_4_grid


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

    def test_negative_type21_parameter(self):
        with pytest.raises(InvalidParameter, match="gamma1 = -0.1 is negative"):
            build_algebra(rl(-0.1, 0.0, 0.3, 0.3))


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

    def test_subnormal_gamma2_keeps_x2_alive(self):
        # x2(1) = gamma2 x1 y underflows to 0.0 in floats, but is not zero
        cls = classify_eset(Element.from_vector([0.5, 0.0, 0.5], 2), rl(0.4, 5e-324, 0.2, 0.3))
        assert (cls.kind, cls.t0, cls.eset_prefix) == ("finite", 1, (0,))

    def test_finite_eset_ends_by_step_one(self):
        # an orbit that keeps its males has at most three supports
        for params, v in _criterion_4_grid(400):
            cls = classify_eset(Element.from_vector(v, 2), rl(*params))
            assert cls.t0 <= 2 and set(cls.eset_prefix) <= {0, 1}

    def test_every_zero_pattern_matches_exact_arithmetic(self):
        # every support of the two offspring rows and of the start, with
        # rational constants; E and male extinction against 12 exact steps
        supports = [m for m in itertools.product((0, 1), repeat=3) if any(m)]
        for row_g, row_d in itertools.product(supports, repeat=2):
            g1, g2, g = (Fraction(b, sum(row_g)) for b in row_g)
            d1, d2, d = (Fraction(b, sum(row_d)) for b in row_d)
            s = rl(float(g1), float(g2), float(d1), float(d2))
            for start in itertools.product((0, 1), repeat=3):
                a, b, c = (Fraction(v) for v in start)
                zeros, males = set(), True
                for t in range(13):
                    zeros |= {t} if b == 0 else set()
                    males = males and c != 0
                    a, b, c = (g1 * a + d1 * b) * c, (g2 * a + d2 * b) * c, (g * a + d * b) * c
                z0 = Element.from_vector([float(v) for v in start], 2)
                if not males:
                    with pytest.raises(MaleExtinction):
                        classify_eset(z0, s)
                    continue
                cls = classify_eset(z0, s)
                expected = {
                    "finite": set(cls.eset_prefix),
                    "infinite_all_positive_steps": set(range(1, 13)) | (zeros & {0}),
                    "infinite_even": set(range(0, 13, 2)),
                    "infinite_odd": set(range(1, 13, 2)),
                }[cls.kind]
                assert zeros == expected, (row_g, row_d, start, cls)

    def test_negative_state_rejected(self):
        s = rl(0.2, 0.2, 0.3, 0.3)
        z0 = Element.from_vector([-0.2, 0.6, 0.6], 2)
        with pytest.raises(ValueError):
            classify_eset(z0, s)
        with pytest.raises(ValueError):
            predict_limit_type21(z0, s)

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

    def test_alternating_tail_without_thresholds_is_degenerate(self):
        # g2 d1 (1 - g2)(1 - d1) = 2.5e-14 is below PARAM_TOL: the period-2 thresholds are not derived
        s = rl(0.0, 1e-13, 0.5, 0.0)
        z0 = Element.from_vector([1.0, 0.0, 1.0], 2)
        assert classify_eset(z0, s).kind == "infinite_even"
        with pytest.raises(DegenerateParameter, match="period-2 thresholds"):
            predict_limit_type21(z0, s)

    def test_near_repeated_eigenvalues_split_as_the_fixed_point_table_splits_them(self):
        # sqrt(disc) = 1e-7: the table holds a root for each of lambda = 0.3 and
        # 0.3000001, and the prediction reads the same two eigenvalues
        params = (0.3, 0.0, 0.3, 0.3000001)
        points, _ = type21_fixed_points(*params)
        assert [1.0 / p[2] for p in points[1:]] == pytest.approx([0.3000001, 0.3], abs=1e-15)
        pred = predict_limit_type21(Element.from_vector([0.3, 0.3, 0.4], 2), rl(*params))
        assert pred.kind == "distinct_eigenvalues" and pred.selected_index == 1
        assert pred.lambda1 == pytest.approx(0.3, abs=1e-12) and pred.lambda2 == 0.3000001
        dominant = np.array(points[1])
        assert pred.v_limit == pytest.approx(dominant / dominant.sum(), abs=1e-12)

    def test_split_eigenvalues_near_lambda_I_go_to_the_dominant_point(self, capsys):
        # sqrt(disc) = 3e-12: the table splits the eigenvalues 0.3 and
        # 0.3 + 3e-12, so A is not lambda I although both columns of
        # A - lambda1 I are of order 1e-12; e = (A - lambda1 I) x(t0) is that
        # small too, yet it is no rounding residue, and the V limit is the
        # lambda2 table point normalized, not the start's direction
        params = (0.3, 0.0, 0.0, 0.300000000003)
        points, line = type21_fixed_points(*params)
        assert line is None and len(points) == 3
        pred = predict_limit_type21(Element.from_vector([1.0, 0.1, 1.0], 2), rl(*params))
        assert pred.kind == "distinct_eigenvalues"
        dominant = np.array(points[1])
        assert 1.0 / dominant[2] == pred.lambda2
        assert pred.v_limit == pytest.approx(dominant / dominant.sum(), abs=1e-12)
        assert pred.v_limit == pytest.approx((0.0, 0.3, 0.7), abs=1e-11)
        # lambda1 / lambda2 = 1 - 1e-11: 500 V steps cannot tell the limit
        # from the start, so the verification disagrees (ROADMAP item 11)
        from gonosim.cli import main

        flags = [v for f, p in zip(("--gamma1", "--gamma2", "--delta1", "--delta2"), params) for v in (f, repr(p))]
        assert main(["predict", "--scenario", "recessive_lethal", *flags, "--init", "1,0.1,1"]) == 1
        assert json.loads(capsys.readouterr().out)["agreement"] is False

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

    def test_triangular_limit_with_zero_delta1(self):
        # the reference component e = (A - lambda1 I) x(t0) has e1 = 0 exactly,
        # so u and U are reported as null
        s = rl(0.224, 0.638, 0.0, 0.487)
        pred = predict_limit_type21(Element.from_vector([0.3, 0.3, 0.4], 2), s)
        assert pred.kind == "distinct_eigenvalues" and pred.selected_index == 1
        assert pred.v_limit == pytest.approx((0.0, 0.487, 0.513), abs=1e-12)
        assert pred.u_value is None and pred.U_value is None

    def test_start_on_the_smaller_eigenvector(self):
        # x1 = 0 stays 0 when delta1 = 0, so the orbit keeps the eigenvalue d2 < g1
        s = rl(0.5, 0.3, 0.0, 0.2)
        pred = predict_limit_type21(Element.from_vector([0.0, 0.6, 0.4], 2), s)
        assert pred.kind == "distinct_eigenvalues"
        assert pred.v_limit == pytest.approx((0.0, 0.2, 0.8), abs=1e-12)

    def test_zero_delta1_grid_agrees_with_iteration(self):
        # the delta1 = 0 mode of the criterion-4 grid: A is triangular, so
        # lambda1 is g1 or d2 and the reference component can vanish exactly
        checked = 0
        for i, (params, v) in enumerate(_criterion_4_grid(400)):
            if i % 4 != 3:
                continue
            s = rl(*(float(p) for p in params))
            spec = build_algebra(s)
            entry = SCENARIOS["recessive_lethal"]
            z0 = Element.from_vector(v, 2)
            agrees, detail = verify_prediction(z0, spec, entry.predict(z0, spec, s)["prediction"])
            assert agrees, (params, v, detail)
            checked += 1
        assert checked == 100

    def test_equal_modulus_gives_period_two_cycle(self):
        # g1 = d2 = 0 and a finite E-set: A^2 = g2 d1 I, so the V orbit
        # alternates between W(x, 1) and W(A x, 1), normalized, from step 1
        s = rl(0.0, 0.3, 0.4, 0.0)
        z0 = Element.from_vector([0.3, 0.3, 0.4], 2)
        pred = predict_limit_type21(z0, s)
        assert pred.kind == "opposite_eigenvalues" and pred.eset.t0 == 0
        assert pred.lambda1 == -pred.lambda2 == pytest.approx(-np.sqrt(0.12), abs=1e-15)
        assert pred.w_limit == "zero" and pred.v_limit is None
        odd, even = pred.v_period2
        assert odd == pytest.approx((0.2, 0.15, 0.65), abs=1e-15)
        assert even == pytest.approx((6 / 35, 6 / 35, 23 / 35), abs=1e-15)
        spec = build_algebra(s)
        z = z0
        for step in range(1, 9):
            z = apply_V(z, spec)
            assert z.vector == pytest.approx(odd if step % 2 else even, abs=1e-15)

    def test_equal_modulus_grid_agrees_with_iteration(self):
        # the g1 = d2 = 0 mode of the criterion-4 grid: every finite E-set
        # there has opposite eigenvalues
        kinds = []
        for i, (params, v) in enumerate(_criterion_4_grid(400)):
            if i % 4 != 2:
                continue
            s = rl(*(float(p) for p in params))
            spec = build_algebra(s)
            entry = SCENARIOS["recessive_lethal"]
            z0 = Element.from_vector(v, 2)
            pred = entry.predict(z0, spec, s)["prediction"]
            agrees, detail = verify_prediction(z0, spec, pred)
            assert agrees, (params, v, detail)
            kinds.append(pred["kind"])
        assert kinds.count("opposite_eigenvalues") == 34
        assert set(kinds) == {"opposite_eigenvalues", "alternating_tail"}

    @pytest.mark.parametrize("state, w_limit", [([1.2, 1.2, 1.5], "zero"), ([1.2, 1.2, 1.6], None)])
    def test_finite_eset_w_limit_needs_mass_below_four(self, state, w_limit):
        # omega(W(z)) <= omega(z)^2 / 4 sends a mass below 4 to zero; the W
        # limit of a larger mass is not derived, so it is not claimed or iterated
        s, z0 = rl(0.2, 0.2, 0.2, 0.2), Element.from_vector(state, 2)
        pred = predict_limit_type21(z0, s)
        assert pred.kind == "distinct_eigenvalues" and pred.w_limit == w_limit
        agrees, detail = verify_prediction(z0, build_algebra(s), pred.to_dict())
        assert agrees and detail["v_outcome"] == "converged" and detail["v_distance"] < 1e-9
        assert detail["w_outcome"] == ("converged" if w_limit else None)

    def test_male_share_rounding_residue_is_exact_zero(self):
        # 1 - g1 - g2 is -5.55e-17 in floats: the male share is exactly 0, so
        # x1 has no male offspring and from (0.5, 0, 0.5) the males die at step 1
        params = (0.8730834737037929, 0.12691652629620714, 1.0, 0.0)
        assert 1.0 - params[0] - params[1] < 0.0
        assert type21_spec(*params).gamma_tilde[0, 0, 0] == 0.0
        with pytest.raises(MaleExtinction, match="step 1"):
            predict_limit_type21(Element.from_vector([0.5, 0.0, 0.5], 2), rl(*params))

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

    @pytest.mark.parametrize("x, y", [([1.0, 2.0], [3.0]), ([1.0], [2.0, 3.0]), ([], [1.0])], ids=["21", "12", "01"])
    def test_state_of_another_type_is_rejected(self, x, y):
        # the shape alone decides: no algebra is built
        with pytest.raises(ShapeMismatch):
            closed_form_trajectory_type11(Element(x, y), 0.5, 2)

    @pytest.mark.parametrize("gamma", [1e-13, 1.0 - 1e-13])
    def test_gamma_within_param_tol_of_an_end_is_degenerate(self, gamma):
        # the one type-(1,1) rule: 0 < gamma < 1 to within PARAM_TOL
        with pytest.raises(DegenerateParameter):
            closed_form_trajectory_type11(Element.from_vector([1.0, 1.0], 1), gamma, 3)
        with pytest.raises(DegenerateParameter):
            closed_form_fixed_points_type11(gamma)


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

    @pytest.mark.parametrize(
        "mu, eta, start, step",
        [
            (1.0, 0.5, [0.0, 0.5, 0.0, 0.5], 2),  # no healthy males: one step sooner
            (1.0, 0.3, [0.5, 0.0, 0.5, 0.0], 3),
            (1.0, 1.0, [0.0, 0.5, 0.5, 0.0], 2),
            (0.5, 0.5, [0.5, 0.5, 0.0, 0.0], 1),  # no males at all
            (0.5, 1.0, [0.0, 0.0, 0.5, 0.5], 1),
            (0.5, 0.5, [0.0, 0.0, 0.0, 0.0], 0),
        ],
    )
    def test_extinction_step_is_the_first_exact_zero(self, mu, eta, start, step):
        z0 = Element.from_vector(start, 2)
        pred = hemophilia_degenerate_limits(z0, mu, eta)
        assert (pred.kind, pred.extinction_step) == ("extinction", step)
        agrees, _ = verify_prediction(z0, hemophilia_spec(mu, eta), pred.to_dict())
        assert agrees

    def test_extinction_verifier_checks_the_step(self):
        # the orbit is exactly zero first at step 2, so steps 1 and 3 are refuted
        z0 = Element.from_vector([0.0, 0.5, 0.0, 0.5], 2)
        spec = hemophilia_spec(1.0, 0.5)
        pred = hemophilia_degenerate_limits(z0, 1.0, 0.5).to_dict()
        for step in (1, 3):
            assert not verify_prediction(z0, spec, dict(pred, extinction_step=step))[0]

    def test_negative_state_rejected(self):
        with pytest.raises(ValueError):
            hemophilia_degenerate_limits(Element.from_vector([-0.2, 0.6, 0.6, 0.1], 2), 0.5, 1.0)

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

    def test_fixed_points_outside_the_unit_square(self):
        with pytest.raises(DegenerateParameter, match="must lie in"):
            hemophilia_fixed_points(1.5, 1.0)
        with pytest.raises(DegenerateParameter, match="must lie in"):
            closed_form_fixed_points_hemophilia(1.5, 1.0)

    def test_uncovered_case(self):
        with pytest.raises(UncoveredCase):
            hemophilia_degenerate_limits(
                Element.from_vector([0.25, 0.25, 0.25, 0.25], 2), 0.5, 0.5
            )


class TestPredictAdmitsTheStart:
    """Every scenario predictor admits z0 against the scenario's algebra first."""

    PARAMS = {
        "lr_lethal": {"gamma": 0.5},
        "lr_mutation": {"mu": 0.3, "eta": 0.2},
        "recessive_lethal": {"gamma1": 0.3, "gamma2": 0.2, "delta1": 0.25, "delta2": 0.35},
        "hemophilia": {"mu": 0.4, "eta": 1.0},
        "x_inactivation": {"gamma1": 0.3, "gamma2": 0.2, "delta1": 0.25, "delta2": 0.35},
    }

    @staticmethod
    def predict(name, v, n):
        s = Scenario(name, TestPredictAdmitsTheStart.PARAMS[name])
        return SCENARIOS[name].predict(Element.from_vector(v, n), build_algebra(s), s)

    def test_every_scenario_is_covered(self):
        assert sorted(self.PARAMS) == sorted(SCENARIOS)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_non_finite_start_is_rejected(self, name, bad):
        spec = build_algebra(Scenario(name, self.PARAMS[name]))
        v = np.full(spec.dim, 0.5)
        v[-1] = bad
        # the type-(2,1) and (2,2) predictors read the support orbit, which rejects it too
        with pytest.raises(ValueError, match="non-finite" if spec.dim == 2 else "finite state"):
            self.predict(name, v, spec.n)

    @pytest.mark.parametrize("n, nu", [(1, 1), (2, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_start_of_another_type_is_rejected(self, name, n, nu):
        spec = build_algebra(Scenario(name, self.PARAMS[name]))
        if (n, nu) == (spec.n, spec.nu):
            assert self.predict(name, np.full(n + nu, 0.5), n)["prediction"]
        else:
            with pytest.raises(ShapeMismatch):
                self.predict(name, np.full(n + nu, 0.5), n)

    @pytest.mark.parametrize("name", ["lr_lethal", "lr_mutation"])
    def test_signed_type11_start_is_still_predicted(self, name):
        # the type-(1,1) trichotomy reads |x y|
        pred = self.predict(name, [-1.0, 2.0], 1)["prediction"]
        assert pred["product"] == 2.0
