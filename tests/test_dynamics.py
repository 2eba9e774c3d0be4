import json
import warnings

import numpy as np
import pytest

from gonosim import (
    Element,
    IterationOptions,
    apply_V,
    apply_W,
    iterate,
    multiply,
    omega,
    opposite,
    random_stochastic,
    support_orbit,
    swap_map,
    verify_conjugacy,
    verify_coordinate_bounds,
    verify_omega_bounds,
)
from gonosim.algebra import AlgebraSpec
from gonosim.errors import AbsorbedToO, NotStochastic, ShapeMismatch, SingularMap
from gonosim.scenarios import (
    Scenario,
    build_algebra,
    hemophilia_spec,
    predict_limit_type21,
    type11_spec,
    type21_spec,
)


def simplex_state(spec, rng):
    return Element.from_vector(rng.dirichlet(np.ones(spec.dim)), spec.n)


class TestApplyW:
    def test_equals_half_square(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            spec = random_stochastic(1 + seed % 3, 1 + seed % 2, seed)
            z = Element(rng.uniform(-1, 1, spec.n), rng.uniform(-1, 1, spec.nu))
            half_sq = 0.5 * multiply(z, z, spec)
            assert apply_W(z, spec).vector == pytest.approx(half_sq.vector, abs=1e-12)

    def test_lr_values(self):
        spec = type11_spec(0.5)
        assert apply_W(Element.from_vector([2, 2], 1), spec).vector == pytest.approx([2, 2])
        assert apply_W(Element.from_vector([1, 1], 1), spec).vector == pytest.approx([0.5, 0.5])

    def test_one_sex_missing_maps_to_zero(self):
        spec = random_stochastic(2, 2, 4)
        z = Element(np.array([1.0, 2.0]), np.zeros(2))
        assert np.all(apply_W(z, spec).vector == 0.0)

    def test_positivity_preserved_and_converse(self):
        spec = random_stochastic(2, 2, 5)
        rng = np.random.default_rng(6)
        for _ in range(20):
            z = Element(rng.uniform(0, 2, 2), rng.uniform(0, 2, 2))
            assert np.all(apply_W(z, spec).vector >= 0)
        # one negative structure constant admits a non-negative witness mapped outside
        g = spec.gamma.copy()
        g[0, 0, 0] = -0.1
        g[0, 0, 1] = spec.gamma[0, 0, 0] + spec.gamma[0, 0, 1] + 0.1
        bad = AlgebraSpec(2, 2, g, spec.gamma_tilde)
        w = apply_W(Element.basis_female(bad, 0) + Element.basis_male(bad, 0), bad)
        assert np.any(w.vector < 0)

    def test_omega_factorization(self):
        spec = random_stochastic(3, 2, 7)
        rng = np.random.default_rng(8)
        for _ in range(10):
            z = Element(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 2))
            assert omega(apply_W(z, spec)) == pytest.approx(
                z.x.sum() * z.y.sum(), abs=1e-12
            )


class TestApplyV:
    def test_lr_constant(self):
        spec = type11_spec(0.3)
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = simplex_state(spec, rng)
            assert apply_V(z, spec).vector == pytest.approx([0.3, 0.7], abs=1e-12)

    def test_absorbing_state_raises(self):
        spec = type11_spec(0.5)
        with pytest.raises(AbsorbedToO):
            apply_V(Element.from_vector([1.0, 0.0], 1), spec)

    def test_requires_stochastic(self):
        spec = AlgebraSpec(1, 1, [[[1.5]]], [[[-0.5]]])
        with pytest.raises(NotStochastic):
            apply_V(Element.from_vector([0.5, 0.5], 1), spec)

    def test_output_on_simplex(self):
        rng = np.random.default_rng(2)
        for seed in range(20):
            spec = random_stochastic(1 + seed % 3, 1 + (seed // 2) % 3, seed)
            z = simplex_state(spec, rng)
            out = apply_V(z, spec)
            assert out.vector.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(out.vector >= 0)

    def test_consistency_with_unnormalized_orbit(self):
        spec = random_stochastic(2, 2, 9)
        rng = np.random.default_rng(10)
        z = simplex_state(spec, rng)
        w_t, v_t = z, z
        for _ in range(5):
            w_t = apply_W(w_t, spec)
            v_t = apply_V(v_t, spec)
            total = omega(w_t)
            if total == 0:
                break
            assert v_t.vector * total == pytest.approx(w_t.vector, abs=1e-9)


class TestIterate:
    def test_lr_below_threshold_decays(self):
        spec = type11_spec(0.5)
        traj = iterate(Element.from_vector([1, 1], 1), spec, "W")
        assert traj.outcome.kind in ("converged", "extinct", "numerically_extinct")
        assert np.abs(traj.states[-1].vector).sum() < 1e-6

    def test_lr_at_threshold_fixed(self):
        spec = type11_spec(0.5)
        traj = iterate(Element.from_vector([2, 2], 1), spec, "W")
        assert traj.outcome.kind == "converged"
        assert traj.outcome.point.vector == pytest.approx([2, 2], abs=1e-9)

    def test_lr_above_threshold_diverges(self):
        spec = type11_spec(0.5)
        traj = iterate(Element.from_vector([3, 3], 1), spec, "W")
        assert traj.outcome.kind == "divergent"

    def test_exact_extinction(self):
        spec = random_stochastic(2, 2, 11)
        z = Element(np.array([1.0, 1.0]), np.zeros(2))
        traj = iterate(z, spec, "W")
        assert traj.outcome.kind == "extinct"
        assert traj.outcome.step == 1
        assert np.all(traj.states[-1].vector == 0.0)

    def test_v_from_absorbing_state(self):
        spec = type11_spec(0.5)
        traj = iterate(Element.from_vector([1.0, 0.0], 1), spec, "V")
        assert traj.outcome.kind == "absorbed"

    def test_period2_cycle_detected(self):
        s = Scenario(
            "recessive_lethal",
            {"gamma1": 0.0, "gamma2": 0.3, "delta1": 0.4, "delta2": 0.0},
        )
        spec = build_algebra(s)
        traj = iterate(Element.from_vector([0.0, 0.6, 0.4], 2), spec, "V")
        assert traj.outcome.kind == "cycle"
        assert traj.outcome.period == 2

    def test_cycle_footer_names_its_period(self, tmp_path):
        s = Scenario(
            "recessive_lethal",
            {"gamma1": 0.0, "gamma2": 0.3, "delta1": 0.4, "delta2": 0.0},
        )
        traj = iterate(Element.from_vector([0.0, 0.6, 0.4], 2), build_algebra(s), "V")
        traj.to_csv(tmp_path / "t.csv")
        footer = (tmp_path / "t.csv").read_text().splitlines()[-1]
        assert footer == f"# outcome=cycle,step={traj.outcome.step},period=2"

    def test_alternating_convergence_is_not_a_cycle(self):
        # the smaller transfer-matrix eigenvalue is negative: the V orbit
        # approaches its limit from alternating sides
        s = Scenario(
            "recessive_lethal",
            {"gamma1": 0.1, "gamma2": 0.5, "delta1": 0.4, "delta2": 0.1},
        )
        z0 = Element.from_vector([0.2, 0.3, 0.5], 2)
        traj = iterate(z0, build_algebra(s), "V")
        assert traj.outcome.kind == "converged"
        limit = predict_limit_type21(z0, s).v_limit
        assert traj.outcome.point.vector == pytest.approx(limit, abs=1e-8)

    def test_alternating_convergence_random_type21(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 40:
            g1, g2 = rng.dirichlet(np.ones(3))[:2]
            d1, d2 = rng.dirichlet(np.ones(3))[:2]
            root = np.sqrt((g1 - d2) ** 2 + 4.0 * g2 * d1)
            lam1, lam2 = (g1 + d2 - root) / 2.0, (g1 + d2 + root) / 2.0
            if lam1 >= 0.0 or abs(lam1) / lam2 > 0.8:
                continue
            s = Scenario(
                "recessive_lethal",
                {"gamma1": g1, "gamma2": g2, "delta1": d1, "delta2": d2},
            )
            z0 = Element.from_vector(rng.dirichlet(np.ones(3)), 2)
            traj = iterate(z0, build_algebra(s), "V")
            assert traj.outcome.kind == "converged"
            limit = predict_limit_type21(z0, s).v_limit
            assert traj.outcome.point.vector == pytest.approx(limit, abs=1e-6)
            checked += 1

    def test_omegas_match_states(self):
        spec = random_stochastic(2, 2, 12)
        z = Element.from_vector(np.full(4, 0.25), 2)
        traj = iterate(z, spec, "W")
        for s, om in zip(traj.states, traj.omegas):
            assert om == pytest.approx(omega(s), abs=1e-12)

    @pytest.mark.parametrize("operator", ["W", "V"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_initial_state_rejected(self, operator, bad):
        with pytest.raises(ValueError, match="non-finite"):
            iterate(Element.from_vector([0.5, bad], 1), type11_spec(0.5), operator)

    def test_invalid_operator(self):
        with pytest.raises(ValueError):
            iterate(Element.from_vector([1, 1], 1), type11_spec(0.5), "Q")

    @pytest.mark.parametrize("operator", ["W", "V"])
    @pytest.mark.parametrize(
        "bad",
        [
            {"max_steps": -1},
            {"patience": 0},
            {"max_period": 0},
            {"conv_tol": np.nan},
            {"conv_tol": -1.0},
            {"conv_tol": 0.0},
            {"conv_tol": np.inf},
            {"div_threshold": np.nan},
            {"div_threshold": -1.0},
            {"div_threshold": 0.0},
            {"div_threshold": np.inf},
        ],
        ids=lambda d: "-".join(f"{k}={v}" for k, v in d.items()),
    )
    def test_bad_options_rejected_before_the_loop(self, operator, bad):
        field = next(iter(bad))
        with pytest.raises(ValueError, match=field):
            iterate(Element.from_vector([0.5, 0.5], 1), type11_spec(0.5), operator, IterationOptions(**bad))

    @pytest.mark.parametrize("operator", ["W", "V"])
    def test_smallest_valid_options(self, operator):
        z0 = Element.from_vector([0.5, 0.5], 1)
        opts = IterationOptions(max_steps=0, patience=1, max_period=1, conv_tol=1e-300, div_threshold=1e-300)
        traj = iterate(z0, type11_spec(0.5), operator, opts)
        assert len(traj.states) == 1 and traj.outcome.kind == "max_iterations"
        traj = iterate(z0, type11_spec(0.5), operator, IterationOptions(patience=1, max_period=1))
        assert traj.outcome.kind in ("converged", "extinct", "numerically_extinct")


class TestSupportOrbit:
    def test_alternating_cycle(self):
        # g1 = d2 = 0: the females alternate between x1 and x2
        masks, p = support_orbit(type21_spec(0.0, 0.3, 0.4, 0.0), Element.from_vector([0.0, 0.6, 0.4], 2))
        assert (masks, p) == ([(False, True, True), (True, False, True)], 0)

    def test_extinction_is_the_empty_fixed_support(self):
        # both lethal and sterile affected males: the W orbit is zero from step 2
        masks, p = support_orbit(hemophilia_spec(1.0, 1.0), Element.from_vector([0.25] * 4, 2))
        assert p == 2 and len(masks) == 3 and not any(masks[2])

    def test_rejects_states_and_algebras_that_can_cancel(self):
        spec = type21_spec(0.2, 0.2, 0.3, 0.3)
        for bad in ([-0.2, 0.6, 0.6], [np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5]):
            with pytest.raises(ValueError):
                support_orbit(spec, Element.from_vector(bad, 2))
        with pytest.raises(NotStochastic):
            support_orbit(AlgebraSpec(1, 1, [[[1.5]]], [[[-0.5]]]), Element.from_vector([1.0, 1.0], 1))
        with pytest.raises(ShapeMismatch):
            support_orbit(spec, Element.from_vector([0.5, 0.5], 1))


class TestBounds:
    def test_quarter_bound_on_simplex(self):
        rng = np.random.default_rng(13)
        for seed in range(30):
            spec = random_stochastic(1 + seed % 3, 1 + (seed // 3) % 3, seed)
            z = simplex_state(spec, rng)
            assert omega(apply_W(z, spec)) <= 0.25 + 1e-12

    def test_omega_bounds_random_sweep(self):
        rng = np.random.default_rng(14)
        for seed in range(50):
            spec = random_stochastic(1 + seed % 3, 1 + (seed // 5) % 3, seed)
            z = Element.from_vector(
                rng.dirichlet(np.ones(spec.dim)) * rng.uniform(0.1, 4.0), spec.n
            )
            report = verify_omega_bounds(z, spec, 8)
            assert report.all_pass, report.first_violation

    def test_omega_constant_at_boundary(self):
        spec = type11_spec(0.5)
        report = verify_omega_bounds(Element.from_vector([2, 2], 1), spec, 6)
        assert report.all_pass

    def test_omega_bounds_need_stochastic(self):
        spec = AlgebraSpec(1, 1, [[[1.5]]], [[[-0.5]]])
        with pytest.raises(NotStochastic):
            verify_omega_bounds(Element.from_vector([1, 1], 1), spec, 3)

    def test_coordinate_bounds_tight_for_lr(self):
        spec = type11_spec(0.3)
        report = verify_coordinate_bounds(Element.from_vector([0.4, 0.6], 1), spec, 5)
        assert report.all_pass

    def test_coordinate_bounds_exclude_t0(self):
        # start outside the coefficient envelope; only t >= 1 is checked
        spec = type11_spec(0.3)
        report = verify_coordinate_bounds(Element.from_vector([0.9, 0.1], 1), spec, 4)
        assert report.all_pass

    def test_coordinate_bounds_random(self):
        rng = np.random.default_rng(15)
        for seed in range(30):
            spec = random_stochastic(2, 2, seed)
            report = verify_coordinate_bounds(simplex_state(spec, rng), spec, 6)
            assert report.all_pass, report.first_violation


class TestConjugacy:
    def test_identity_map(self):
        spec = random_stochastic(2, 2, 16)
        assert verify_conjugacy(spec, spec, np.eye(4), samples=5, seed=0)

    def test_opposite_swap(self):
        spec = random_stochastic(2, 3, 17)
        assert verify_conjugacy(spec, opposite(spec), swap_map(spec), samples=10, seed=0)

    def test_scaling_not_multiplicative(self):
        spec = type11_spec(0.5)
        assert not verify_conjugacy(spec, spec, 2.0 * np.eye(2), samples=5, seed=0)

    def test_non_finite_gap_fails(self):
        # a NaN constant or map entry is rejected before the determinant is taken
        spec = random_stochastic(1, 1, 0)
        with pytest.raises(ValueError, match="finite"):
            verify_conjugacy(AlgebraSpec(1, 1, [[[np.nan]]], [[[0.5]]]), spec, np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            verify_conjugacy(spec, spec, np.array([[1.0, 0.0], [np.nan, 1.0]]))
        # finite constants whose images overflow (on some of 200 samples) give an
        # inf or NaN gap, which compares false with the tolerance, yet it is no
        # agreement; the overflow warns no more than in iterate
        huge = AlgebraSpec(2, 1, np.full((2, 1, 2), 1e308), np.full((2, 1, 1), 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not verify_conjugacy(huge, huge, np.eye(3), samples=200)

    @pytest.mark.parametrize("samples", [0, -1, -5])
    def test_no_samples_rejected(self, samples):
        # with no sample nothing is checked, so no verdict is given
        spec = type11_spec(0.5)
        with pytest.raises(ValueError, match="samples must be >= 1"):
            verify_conjugacy(spec, spec, 2.0 * np.eye(2), samples=samples)

    def test_map_of_the_wrong_shape_rejected(self):
        spec = random_stochastic(2, 2, 16)
        with pytest.raises(ShapeMismatch):
            verify_conjugacy(spec, spec, np.eye(3))

    def test_singular_map_rejected(self):
        spec = type11_spec(0.5)
        with pytest.raises(SingularMap):
            verify_conjugacy(spec, spec, np.ones((2, 2)))


class TestExport:
    def test_csv_format(self, tmp_path):
        spec = type11_spec(0.5)
        traj = iterate(Element.from_vector([2, 2], 1), spec, "W")
        path = tmp_path / "t.csv"
        traj.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x1,y1,omega"
        assert lines[-1].startswith("# outcome=converged")
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 2.0

    def test_json_export(self, tmp_path):
        spec = type11_spec(0.5)
        traj = iterate(Element.from_vector([1, 1], 1), spec, "W")
        path = tmp_path / "t.json"
        traj.to_json(path)
        data = json.loads(path.read_text())
        assert data["operator"] == "W"
        assert data["outcome"]["kind"] == traj.outcome.kind
        assert data["outcome"]["final_step_l1"] == traj.outcome.final_step_l1
        assert len(data["states"]) == len(traj.states)

    def test_final_step_l1(self, tmp_path):
        spec = type11_spec(0.5)
        traj = iterate(Element.from_vector([2, 2], 1), spec, "W")
        last, prev = traj.states[-1].vector, traj.states[-2].vector
        assert traj.outcome.final_step_l1 == float(np.abs(last - prev).sum())
        assert traj.outcome.final_step_l1 < IterationOptions().conv_tol
        # the summary line and the CSV footer do not carry it
        assert traj.outcome.describe() == f"outcome=converged,step={traj.outcome.step}"
        traj.to_csv(tmp_path / "t.csv")
        footer = (tmp_path / "t.csv").read_text().splitlines()[-1]
        assert footer == f"# {traj.outcome.describe()}"
        for opts, z in ((IterationOptions(max_steps=0), [2, 2]), (None, [1, 0])):
            traj = iterate(Element.from_vector(z, 1), spec, "V" if opts is None else "W", opts)
            assert traj.outcome.step == 0 and traj.outcome.final_step_l1 is None
            assert traj.to_dict()["outcome"]["final_step_l1"] is None

    def test_csv_17_digit_roundtrip(self, tmp_path):
        spec = random_stochastic(2, 1, 18)
        z = Element.from_vector([1 / 3, 1 / 7, 1 / 11], 2)
        traj = iterate(z, spec, "W", IterationOptions(max_steps=3))
        path = tmp_path / "t.csv"
        traj.to_csv(path)
        row = path.read_text().splitlines()[1].split(",")
        assert float(row[1]) == z.x[0] and float(row[2]) == z.x[1]
