"""Identity search, checked against the per-tuple loop it replaced.

``reference_check_identities`` is that loop: four to six ``multiply``
calls per candidate tuple, tried in the same order with the same random
draws, stopping at the first violation.  Flexibility, which the checker
reports without a search, is searched over every pair there and must come
out exactly zero.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from gonosim import (
    AlgebraSpec,
    Element,
    associator,
    check_identities,
    multiply,
    principal_power,
    random_stochastic,
)
from gonosim.identities import DEFECT_THRESHOLD
from gonosim.scenarios import hemophilia_spec, type11_spec, type21_spec


def _l1(el):
    return float(np.abs(el.x).sum() + np.abs(el.y).sum())


def _defects(spec):
    def mul(a, b):
        return multiply(a, b, spec)

    def alt(a, b):
        sq = mul(a, a)
        return max(
            _l1(mul(sq, b) - mul(a, mul(a, b))), _l1(mul(b, sq) - mul(mul(b, a), a))
        )

    def jordan(a, b):
        sq = mul(a, a)
        return _l1(mul(sq, mul(a, b)) - mul(a, mul(sq, b)))

    def power(a):
        sq = mul(a, a)
        return _l1(mul(sq, sq) - principal_power(a, 4, spec))

    return {
        "associativity": lambda a, b, c: _l1(associator(a, b, c, spec)),
        "flexibility": lambda a, b: _l1(mul(a, mul(b, a)) - mul(mul(a, b), a)),
        "alternativity": alt,
        "jordan": jordan,
        "power_associativity": power,
        "jacobi": lambda a, b, c: _l1(mul(mul(a, b), c) + mul(mul(b, c), a) + mul(mul(c, a), b)),
    }


def reference_check_identities(spec, samples, seed):
    """name -> (verdict, defect, witness, candidates) by the per-tuple search."""
    rng = np.random.default_rng(seed)
    basis = [Element.basis_female(spec, i) for i in range(spec.n)]
    basis += [Element.basis_male(spec, p) for p in range(spec.nu)]
    mixed = [
        Element.basis_female(spec, i) + Element.basis_male(spec, p)
        for i in range(spec.n)
        for p in range(spec.nu)
    ]
    rand = [
        Element(rng.uniform(-1, 1, spec.n), rng.uniform(-1, 1, spec.nu))
        for _ in range(samples)
    ]
    s = len(rand)
    singles = [(a,) for a in mixed + basis + rand]
    pairs = [(a, b) for a in basis + mixed for b in basis]
    pairs += [(rand[i], rand[(i + 1) % s]) for i in range(s)]
    triples = [(a, b, c) for a in basis for b in basis for c in basis]
    triples += [(rand[i], rand[(i + 1) % s], rand[(i + 2) % s]) for i in range(s)]
    candidates = {
        "associativity": triples,
        "flexibility": pairs,
        "alternativity": pairs,
        "jordan": pairs,
        "power_associativity": singles,
        "jacobi": triples,
    }
    out = {}
    for name, defect in _defects(spec).items():
        best, best_at = 0.0, None
        for t, tup in enumerate(candidates[name]):
            d = defect(*tup)
            if d > best:
                best, best_at = d, t
                if best > DEFECT_THRESHOLD:
                    break
        if name == "flexibility":
            # x(yx) and (xy)x are equal bit for bit, as multiply is commutative
            assert best == 0.0
            out[name] = ("holds_on_samples", 0.0, None, 0)
        elif best > DEFECT_THRESHOLD:
            witness = [el.vector.tolist() for el in candidates[name][best_at]]
            out[name] = ("violated", best, witness, best_at + 1)
        else:
            out[name] = ("holds_on_samples", best, None, len(candidates[name]))
    return out


def assert_matches_reference(spec, samples, seed):
    want = reference_check_identities(spec, samples, seed)
    got = check_identities(spec, samples=samples, seed=seed)
    for name, (verdict, defect, witness, count) in want.items():
        res = got[name]
        assert (res.verdict, res.witness, res.candidates) == (verdict, witness, count), name
        assert res.defect == pytest.approx(defect, rel=1e-12), name


def basis_f(spec, i):
    return Element.basis_female(spec, i)


def basis_m(spec, p):
    return Element.basis_male(spec, p)


class TestAssociator:
    def test_lr_basis_witness(self):
        # (ee)m = 0 while e(em) = (1-g)(g e + (1-g) m) at g = 0.5
        spec = type11_spec(0.5)
        e, m = basis_f(spec, 0), basis_m(spec, 0)
        val = associator(e, e, m, spec).vector
        assert val == pytest.approx([-0.25, -0.25], abs=1e-14)

    def test_all_female_triple_vanishes(self):
        spec = random_stochastic(3, 2, 0)
        vals = associator(basis_f(spec, 0), basis_f(spec, 1), basis_f(spec, 2), spec)
        assert np.all(vals.vector == 0.0)

    def test_agrees_with_expansion_on_basis_triples(self):
        # independent expansion: e_i (e_j m_p) = sum_r gt[j,p,r] (e_i m_r)
        # and (e_i e_j) m_p = 0
        spec = random_stochastic(3, 3, 5)
        for i in range(3):
            for j in range(3):
                for p in range(3):
                    want_x = np.zeros(3)
                    want_y = np.zeros(3)
                    for r in range(3):
                        want_x -= spec.gamma_tilde[j, p, r] * spec.gamma[i, r]
                        want_y -= spec.gamma_tilde[j, p, r] * spec.gamma_tilde[i, r]
                    got = associator(basis_f(spec, i), basis_f(spec, j), basis_m(spec, p), spec)
                    assert got.x == pytest.approx(want_x, abs=1e-12)
                    assert got.y == pytest.approx(want_y, abs=1e-12)


class TestPrincipalPower:
    def test_first_power_is_identity(self):
        spec = random_stochastic(2, 2, 1)
        a = Element(np.array([0.3, 0.2]), np.array([0.1, 0.4]))
        assert np.array_equal(principal_power(a, 1, spec).vector, a.vector)

    def test_lr_square(self):
        spec = type11_spec(0.5)
        x = basis_f(spec, 0) + basis_m(spec, 0)
        assert principal_power(x, 2, spec).vector == pytest.approx([1.0, 1.0], abs=1e-14)

    def test_fourth_power_differs_from_square_of_square(self):
        # interior row sums: x^2 x^2 and x^4 disagree for x = e_i + m_p
        for seed in range(5):
            spec = random_stochastic(2, 2, seed)
            x = basis_f(spec, 0) + basis_m(spec, 0)
            sq = multiply(x, x, spec)
            lhs = multiply(sq, sq, spec).vector
            rhs = principal_power(x, 4, spec).vector
            assert np.abs(lhs - rhs).sum() > 1e-8

    def test_invalid_power(self):
        spec = type11_spec(0.5)
        with pytest.raises(ValueError):
            principal_power(basis_f(spec, 0), 0, spec)


class TestCheckIdentities:
    def test_lr_report(self):
        report = check_identities(type11_spec(0.5), samples=5, seed=0)
        assert report["associativity"].verdict == "violated"
        assert report["associativity"].defect > 1e-8
        assert report["associativity"].witness is not None
        assert report["flexibility"].verdict == "holds_on_samples"
        assert report["flexibility"].defect < 1e-10
        assert report["jacobi"].verdict == "violated"
        assert report["power_associativity"].verdict == "violated"

    def test_hemophilia_power_associativity(self):
        report = check_identities(hemophilia_spec(0.0, 0.0), samples=3, seed=0)
        assert report["power_associativity"].verdict == "violated"

    def test_random_sweep(self):
        for seed in range(20):
            spec = random_stochastic(1 + seed % 3, 1 + (seed // 3) % 3, seed)
            report = check_identities(spec, samples=3, seed=seed)
            assert report["associativity"].verdict == "violated"
            assert report["jacobi"].verdict == "violated"
            assert report["power_associativity"].verdict == "violated"
            assert report["flexibility"].defect < 1e-10

    def test_report_serializes(self):
        d = check_identities(type11_spec(0.3), samples=2, seed=1).to_dict()
        assert set(d) == {
            "associativity",
            "flexibility",
            "alternativity",
            "jordan",
            "power_associativity",
            "jacobi",
        }
        for entry in d.values():
            assert entry["verdict"] in ("violated", "holds_on_samples")

    @pytest.mark.parametrize("n, nu", [(1, 1), (2, 1), (2, 2), (8, 8), (32, 32)])
    def test_flexibility_holds_by_commutativity(self, n, nu):
        report = check_identities(random_stochastic(n, nu, 0), samples=1, seed=0)
        assert report.to_dict()["flexibility"] == {
            "verdict": "holds_on_samples",
            "defect": 0.0,
            "witness": None,
            "candidates": 0,
        }

    def test_deterministic(self):
        a = check_identities(random_stochastic(2, 2, 3), samples=4, seed=9).to_dict()
        b = check_identities(random_stochastic(2, 2, 3), samples=4, seed=9).to_dict()
        assert a == b


TYPE21_BRANCHES = [
    (0.3, 0.0, 0.0, 0.3),  # g2 = d1 = 0, g1 = d2: a line of fixed points
    (0.3, 0.0, 0.0, 0.5),  # g2 = d1 = 0
    (0.3, 0.2, 0.0, 0.4),  # d1 = 0
    (0.2, 0.0, 0.3, 0.5),  # g2 = 0
    (0.2, 0.4, 0.1, 0.2),  # D = 0, rank-one branch
    (0.1, 0.5, 0.4, 0.1),  # both g2, d1 non-zero
    (1.0, 0.0, 0.0, 1.0),  # no male offspring
    (0.0, 0.0, 0.0, 0.0),  # no female offspring
]


class TestAgainstReference:
    @pytest.mark.parametrize(
        "n, nu", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 4), (3, 2), (3, 3), (4, 4), (5, 3), (8, 8)]
    )
    @pytest.mark.parametrize("samples", [1, 2, 5])
    def test_random_algebras(self, n, nu, samples):
        for seed in range(2 if n * nu >= 64 else 3):
            assert_matches_reference(random_stochastic(n, nu, seed), samples, seed + 10 * samples)

    @pytest.mark.parametrize("samples", [1, 2, 5])
    def test_scenario_algebras(self, samples):
        specs = [type11_spec(g) for g in (0.0, 0.3, 0.5, 1.0)]
        specs += [type21_spec(*p) for p in TYPE21_BRANCHES]
        specs += [
            hemophilia_spec(mu, eta) for mu in (0.0, 0.4, 1.0) for eta in (0.0, 0.5, 1.0)
        ]
        for seed, spec in enumerate(specs):
            assert_matches_reference(spec, samples, seed)

    @pytest.mark.parametrize("samples", [1, 3])
    def test_zero_algebra_holds_everywhere(self, samples):
        # every product is 0: no identity is violated, so each search runs
        # through the random triples to the end of its candidates
        spec = AlgebraSpec(1, 1, [[[0.0]]], [[[0.0]]])
        assert_matches_reference(spec, samples, 5)
        report = check_identities(spec, samples=samples, seed=5)
        assert len(report.results) == 6
        assert all(r.verdict == "holds_on_samples" and r.defect == 0.0 for r in report.results.values())

    def test_candidate_counts(self):
        # (e e) m = 0 while e (e m) != 0: the second basis triple is the witness
        report = check_identities(type11_spec(0.5), samples=2, seed=0)
        assert report["associativity"].candidates == 2
        assert report["associativity"].witness == [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        # flexibility holds by commutativity and searches no pair
        assert report["flexibility"].candidates == 0
        assert report.to_dict()["flexibility"]["candidates"] == 0


class TestLargeAndBadInput:
    def test_type_32_32_memory(self):
        spec = random_stochastic(32, 32, 0)
        tracemalloc.start()
        try:
            report = check_identities(spec, samples=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert report["associativity"].verdict == "violated"
        assert report["flexibility"].verdict == "holds_on_samples"
        assert report["flexibility"].candidates == 0

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            check_identities(type11_spec(0.5), samples=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_algebra_rejected(self, bad):
        spec = AlgebraSpec(1, 1, [[[bad]]], [[[0.5]]])
        with pytest.raises(ValueError, match="non-finite"):
            check_identities(spec, samples=2)

    @pytest.mark.parametrize("scale", [1e200, 1e120])
    def test_overflowing_products_rejected(self, scale):
        # finite constants, but (e_1 m_1) e_1 already overflows at 1e200 and
        # the random triples' products do at 1e120
        spec = AlgebraSpec(1, 1, [[[scale]]], [[[scale]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                check_identities(spec, samples=2)

    def test_large_finite_defects_still_reported(self):
        spec = AlgebraSpec(1, 1, [[[1e50]]], [[[1e50]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_identities(spec, samples=2)
        assert report["associativity"].verdict == "violated"
        assert np.isfinite(report["associativity"].defect)
