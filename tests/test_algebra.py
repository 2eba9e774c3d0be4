import inspect
import json
import operator

import numpy as np
import pytest

import gonosim
import gonosim.cli
from gonosim import (
    AlgebraSpec,
    BasisChange,
    Element,
    change_basis,
    multiply,
    omega,
    opposite,
    random_stochastic,
    swap_map,
    validate,
    verify_conjugacy,
)
from gonosim.errors import ShapeMismatch, SingularBasisChange
from gonosim.scenarios import Scenario, build_algebra, type11_spec


def brute_multiply(a, b, spec):
    """Independent nested-loop expansion of the bilinear product."""
    x = np.zeros(spec.n)
    y = np.zeros(spec.nu)
    for i in range(spec.n):
        for p in range(spec.nu):
            coeff = a.x[i] * b.y[p] + b.x[i] * a.y[p]
            for k in range(spec.n):
                x[k] += coeff * spec.gamma[i, p, k]
            for r in range(spec.nu):
                y[r] += coeff * spec.gamma_tilde[i, p, r]
    return Element(x, y)


def random_element(spec, rng):
    return Element(rng.uniform(-1, 1, spec.n), rng.uniform(-1, 1, spec.nu))


class TestValidate:
    def test_lr_stochastic(self):
        report = validate(type11_spec(0.5))
        assert report.is_gonosomal and report.is_stochastic
        assert report.violations == []

    def test_row_sum_violation(self):
        spec = AlgebraSpec(1, 1, [[[0.5]]], [[[0.4]]])
        report = validate(spec)
        assert not report.is_gonosomal
        v = report.violations[0]
        assert v["kind"] == "row_sum" and (v["i"], v["p"]) == (1, 1)
        assert v["sum"] == pytest.approx(0.9)

    def test_negative_entries_still_gonosomal(self):
        spec = AlgebraSpec(1, 1, [[[1.5]]], [[[-0.5]]])
        report = validate(spec)
        assert report.is_gonosomal and not report.is_stochastic
        kinds = {v["kind"] for v in report.violations}
        assert kinds == {"negative_entry"}

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            AlgebraSpec(2, 1, np.zeros((1, 1, 1)), np.zeros((2, 1, 1)))

    def test_empty_type_rejected(self):
        with pytest.raises(ShapeMismatch, match="n, nu >= 1"):
            AlgebraSpec(0, 1, np.zeros((0, 1, 0)), np.zeros((0, 1, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_rejected(self, bad):
        spec = AlgebraSpec(2, 1, [[[0.5, 0.2]], [[bad, 0.2]]], [[[0.3]], [[0.3]]])
        report = validate(spec)
        assert not report.is_gonosomal and not report.is_stochastic
        nonfinite = [v for v in report.violations if v["kind"] == "nonfinite_entry"]
        assert len(nonfinite) == 1
        assert nonfinite[0]["tensor"] == "gamma" and nonfinite[0]["index"] == (2, 1, 1)


class TestMultiply:
    def test_same_sex_products_vanish(self):
        spec = random_stochastic(3, 2, 0)
        e1 = Element.basis_female(spec, 0)
        e2 = Element.basis_female(spec, 1)
        assert np.all(multiply(e1, e2, spec).vector == 0.0)
        m1 = Element.basis_male(spec, 0)
        m2 = Element.basis_male(spec, 1)
        assert np.all(multiply(m1, m2, spec).vector == 0.0)

    def test_lr_mixed_product(self):
        spec = type11_spec(0.5)
        e = Element.basis_female(spec, 0)
        m = Element.basis_male(spec, 0)
        assert multiply(e, m, spec).vector == pytest.approx([0.5, 0.5])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for n in range(1, 4):
            for nu in range(1, 4):
                spec = random_stochastic(n, nu, 10 * n + nu)
                for _ in range(5):
                    a, b = random_element(spec, rng), random_element(spec, rng)
                    got = multiply(a, b, spec).vector
                    want = brute_multiply(a, b, spec).vector
                    assert got == pytest.approx(want, abs=1e-12)
                    # commutativity
                    assert got == pytest.approx(multiply(b, a, spec).vector, abs=1e-12)

    def test_bilinearity(self):
        spec = random_stochastic(2, 2, 3)
        rng = np.random.default_rng(4)
        a, b, c = (random_element(spec, rng) for _ in range(3))
        lhs = multiply(a + 2.0 * b, c, spec).vector
        rhs = multiply(a, c, spec).vector + 2.0 * multiply(b, c, spec).vector
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_shape_check(self):
        spec = type11_spec(0.5)
        bad = Element(np.zeros(2), np.zeros(1))
        with pytest.raises(ShapeMismatch):
            multiply(bad, bad, spec)


class TestElement:
    def test_parts_are_copied(self):
        x = np.zeros(2)
        el = Element(x, np.ones(1))
        x[0] = 5.0  # the caller's array stays writable
        assert el.x.tolist() == [0.0, 0.0] and not el.x.flags.writeable

    def test_from_vector_does_not_alias(self):
        v = np.array([1.0, 2.0, 3.0])
        el = Element.from_vector(v, 2)
        v[0] = 99.0
        assert el.vector.tolist() == [1.0, 2.0, 3.0]

    def test_parts_are_views_of_one_read_only_vector(self):
        el = Element([1.0, 2.0], [3.0])
        assert el.vector is el.vector  # a read allocates nothing
        assert el.vector.tolist() == [1.0, 2.0, 3.0] and not el.vector.flags.writeable
        for part in (el.x, el.y):
            assert np.shares_memory(part, el.vector) and not part.flags.writeable

    @pytest.mark.parametrize("op", [operator.add, operator.sub])
    def test_arithmetic_across_types_raises(self, op):
        # the parts used to broadcast: (1, 1) + (2, 1) gave ([2, 3], [4])
        with pytest.raises(ShapeMismatch):
            op(Element([1.0], [1.0]), Element([1.0, 2.0], [3.0]))
        # one length split two ways is two types
        with pytest.raises(ShapeMismatch):
            op(Element([1.0], [2.0, 3.0]), Element([1.0, 2.0], [3.0]))

    @pytest.mark.parametrize("n", [-1, 4])
    def test_from_vector_rejects_a_split_outside_the_vector(self, n):
        # n = -1 used to split as n = 2, a state apply_W took on a (2,1) algebra
        with pytest.raises(ShapeMismatch):
            Element.from_vector([0.2, 0.3, 0.5], n)

    def test_malformed_part_raises_when_built(self):
        with pytest.raises(ShapeMismatch):
            Element(np.zeros((2, 1)), np.zeros(1))
        with pytest.raises(ShapeMismatch):
            Element.from_vector(np.zeros((3, 1)), 2)


def test_admission_rules_are_raised_in_one_helper():
    # the operator name, state conformance and stochastic requirement of every
    # entry point are raised by algebra._admit and nowhere else
    modules = [m for m in vars(gonosim).values() if inspect.ismodule(m)] + [gonosim.cli]
    sources = "".join(inspect.getsource(m) for m in modules)
    helper = inspect.getsource(gonosim.algebra._admit)
    for text in ("raise NotStochastic", "operator must be", "does not conform to type"):
        assert sources.count(text) == 1 and text in helper, text


class TestOmega:
    def test_basis_and_zero(self):
        spec = random_stochastic(2, 3, 7)
        assert omega(Element.basis_female(spec, 1)) == 1.0
        assert omega(Element.basis_male(spec, 2)) == 1.0
        assert omega(Element.zero(spec)) == 0.0
        assert omega(Element(np.array([2.0]), np.array([3.0]))) == 5.0

    def test_one_sum_over_the_vector(self):
        # 0 + 1 + 2 + (2^53 - 1) is exact left to right; 1 + (2 + 2^53 - 1)
        # would round the male total to 2^53 and the mass to 2^53
        assert omega(Element([0.0, 1.0], [2.0, 2.0**53 - 1])) == 2**53 + 2

    def test_omega_of_product(self):
        spec = random_stochastic(3, 3, 8)
        rng = np.random.default_rng(9)
        for _ in range(10):
            a, b = random_element(spec, rng), random_element(spec, rng)
            want = a.x.sum() * b.y.sum() + b.x.sum() * a.y.sum()
            assert omega(multiply(a, b, spec)) == pytest.approx(want, abs=1e-10)


def random_basis_change(n, nu, rng):
    """Random invertible matrices with unit column sums."""
    while True:
        alpha = rng.uniform(-1, 1, (n, n))
        alpha_t = rng.uniform(-1, 1, (nu, nu))
        alpha /= alpha.sum(axis=0, keepdims=True)
        alpha_t /= alpha_t.sum(axis=0, keepdims=True)
        if abs(np.linalg.det(alpha)) > 1e-3 and abs(np.linalg.det(alpha_t)) > 1e-3:
            return BasisChange(alpha, alpha_t)


class TestChangeBasis:
    def test_identity_change(self):
        spec = random_stochastic(2, 2, 11)
        bc = BasisChange(np.eye(2), np.eye(2))
        out = change_basis(spec, bc)
        assert out.gamma == pytest.approx(spec.gamma, abs=1e-14)
        assert out.gamma_tilde == pytest.approx(spec.gamma_tilde, abs=1e-14)

    def test_output_is_gonosomal(self):
        rng = np.random.default_rng(12)
        for seed in range(10):
            spec = random_stochastic(3, 2, seed)
            bc = random_basis_change(3, 2, rng)
            assert bc.column_sums_ok()
            out = change_basis(spec, bc)
            assert np.abs(out.row_sums() - 1.0).max() < 1e-10

    def test_composition(self):
        rng = np.random.default_rng(13)
        spec = random_stochastic(2, 2, 13)
        bc1 = random_basis_change(2, 2, rng)
        bc2 = random_basis_change(2, 2, rng)
        seq = change_basis(change_basis(spec, bc1), bc2)
        composed = change_basis(
            spec, BasisChange(bc1.alpha @ bc2.alpha, bc1.alpha_tilde @ bc2.alpha_tilde)
        )
        assert seq.gamma == pytest.approx(composed.gamma, abs=1e-10)
        assert seq.gamma_tilde == pytest.approx(composed.gamma_tilde, abs=1e-10)

    def test_singular_rejected(self):
        spec = random_stochastic(2, 1, 14)
        bc = BasisChange(np.array([[0.5, 0.5], [0.5, 0.5]]), np.eye(1))
        with pytest.raises(SingularBasisChange):
            change_basis(spec, bc)

    def test_wrong_shapes_rejected(self):
        spec = random_stochastic(2, 1, 14)
        for bc in (BasisChange(np.eye(1), np.eye(1)), BasisChange(np.eye(2), np.eye(2))):
            with pytest.raises(ShapeMismatch):
                change_basis(spec, bc)

    def test_matrices_are_copied(self):
        alpha = np.eye(2)
        bc = BasisChange(alpha, np.eye(1))
        alpha[0, 1] = 5.0  # the caller's array stays writable
        assert np.array_equal(bc.alpha, np.eye(2)) and not bc.alpha.flags.writeable


class TestOpposite:
    def test_lr_roles_swap(self):
        opp = opposite(type11_spec(0.3))
        assert opp.gamma[0, 0, 0] == pytest.approx(0.7)
        assert opp.gamma_tilde[0, 0, 0] == pytest.approx(0.3)

    def test_involution_exact(self):
        spec = random_stochastic(3, 2, 15)
        back = opposite(opposite(spec))
        assert np.array_equal(back.gamma, spec.gamma)
        assert np.array_equal(back.gamma_tilde, spec.gamma_tilde)

    def test_type21_gives_type12(self):
        s = Scenario(
            "recessive_lethal",
            {"gamma1": 0.2, "gamma2": 0.3, "delta1": 0.1, "delta2": 0.2},
        )
        opp = opposite(build_algebra(s))
        assert (opp.n, opp.nu) == (1, 2)
        assert validate(opp).is_stochastic

    def test_swap_map_is_isomorphism(self):
        spec = random_stochastic(2, 3, 16)
        assert verify_conjugacy(spec, opposite(spec), swap_map(spec), samples=10, seed=1)


class TestRandomStochastic:
    def test_validates(self):
        for seed in range(5):
            assert validate(random_stochastic(2, 2, seed)).is_stochastic

    def test_deterministic(self):
        a = random_stochastic(3, 3, 42)
        b = random_stochastic(3, 3, 42)
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.gamma_tilde, b.gamma_tilde)

    def test_seeds_differ(self):
        a = random_stochastic(2, 2, 1)
        b = random_stochastic(2, 2, 2)
        assert not np.array_equal(a.gamma, b.gamma)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        spec = random_stochastic(2, 3, 21)
        path = tmp_path / "spec.json"
        spec.save(path)
        back = AlgebraSpec.load(path)
        assert np.array_equal(back.gamma, spec.gamma)
        assert np.array_equal(back.gamma_tilde, spec.gamma_tilde)

    def test_malformed_dict(self):
        with pytest.raises(ShapeMismatch):
            AlgebraSpec.from_dict({"n": 1, "nu": 1})

    def test_json_shape_documented(self, tmp_path):
        spec = random_stochastic(2, 1, 22)
        path = tmp_path / "spec.json"
        spec.save(path)
        raw = json.loads(path.read_text())
        assert len(raw["gamma"]) == 2 and len(raw["gamma"][0]) == 1
        assert len(raw["gamma"][0][0]) == 2 and len(raw["gamma_tilde"][0][0]) == 1
