"""Witness searches for the classical algebra identities.

These algebras are commutative but fail associativity, power associativity
and the Jacobi identity; flexibility always holds.  The checker looks for
concrete elements violating each identity, trying basis tuples first
(reproducible and small) and seeded random elements after.  A "holds"
verdict is only a statement about the sampled elements, never a proof,
except for flexibility, which holds by commutativity and is not searched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraSpec, Element, _admit, multiply

DEFECT_THRESHOLD = 1e-8
# A block of first factors holds about this many floats of left-multiplication
# matrices, which bounds the extra memory of the pair and single searches.
BLOCK_FLOATS = 2**18

IDENTITY_NAMES = (
    "associativity",
    "flexibility",
    "alternativity",
    "jordan",
    "power_associativity",
    "jacobi",
)


def associator(a: Element, b: Element, c: Element, spec: AlgebraSpec) -> Element:
    """(ab)c - a(bc)."""
    return multiply(multiply(a, b, spec), c, spec) - multiply(a, multiply(b, c, spec), spec)


def principal_power(a: Element, k: int, spec: AlgebraSpec) -> Element:
    """Left-multiplication power: a^1 = a, a^k = a * a^(k-1)."""
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    out = a
    for _ in range(k - 1):
        out = multiply(a, out, spec)
    return out


def _l1(V: np.ndarray) -> np.ndarray:
    return np.abs(V).sum(axis=-1)


def _squares(X: np.ndarray, L: np.ndarray, spec: AlgebraSpec) -> np.ndarray:
    """Left-multiplication matrices of the squares x^2 of the rows of X."""
    return spec._left_rows((X[:, None, :] @ L)[:, 0])


# Defects of one block of pair candidates: first factors X (G, dim), each
# with its partners Y (G or 1, m, dim); the result has shape (G, m).  Every
# product with x is one product with its left multiplication L_x
# (AlgebraSpec._left_rows), and the product is commutative.


def _alternativity(X, Y, spec):
    # x^2 y - x(xy); y x^2 - (yx)x is the same element
    L = spec._left_rows(X)
    return _l1(Y @ _squares(X, L, spec) - (Y @ L) @ L)


def _jordan(X, Y, spec):
    # x^2 (xy) - x (x^2 y)
    L = spec._left_rows(X)
    Lsq = _squares(X, L, spec)
    return _l1((Y @ L) @ Lsq - (Y @ Lsq) @ L)


def _power_associativity(X, Y, spec):
    # x^2 x^2 - x(x(xx)), with Y holding x itself
    L = spec._left_rows(X)
    sq = Y @ L
    return _l1(sq @ _squares(X, L, spec) - (sq @ L) @ L)


def _triple_terms(spec: AlgebraSpec, E: np.ndarray, rand: np.ndarray):
    """((ab)c, a(bc), (ca)b) for the triple candidates, one block at a time.

    The basis triples come one first index a at a time from the basis
    products E[a, b] = e_a e_b (the rows of L_(e_a)): with
    P[a, b, c] = (e_a e_b) e_c, commutativity gives a(bc) = P[b, c, a] and
    (ca)b = P[a, c, b].  The random triples (r_i, r_i+1, r_i+2) follow as
    one block.  Extra memory stays O(dim^3).
    """
    dim = spec.dim
    for a in range(dim):
        P = spec._left_rows(E[a])
        Q = (E.reshape(dim * dim, dim) @ E[a]).reshape(dim, dim, dim)
        yield P, Q, P.transpose(1, 0, 2)
    L = spec._left_rows(rand)
    a, b, c = (np.roll(rand, -k, axis=0)[:, None] for k in range(3))
    La, Lb, Lc = (np.roll(L, -k, axis=0) for k in range(3))
    yield (b @ La) @ Lc, (c @ Lb) @ La, (a @ Lc) @ Lb


def _scan(blocks):
    """Apply the search rule to per-block defects given in candidate order.

    The result is the first candidate whose defect exceeds DEFECT_THRESHOLD,
    else the first one with the maximum defect.  Returns (defect, witness
    index or None, candidates): the witness and the count up to and
    including it are reported only for a violation, else the count is every
    candidate searched.  Raises ValueError on a non-finite defect, which
    only overflow gives once the structure constants are finite.
    """
    best, where, count = 0.0, None, 0
    for d in blocks:
        d = d.ravel()
        if not np.isfinite(d).all():
            raise ValueError("identity defect is not finite: the products overflow")
        hit = np.flatnonzero(d > DEFECT_THRESHOLD)
        i = int(hit[0]) if len(hit) else int(np.argmax(d))
        if d[i] > best:
            best, where = float(d[i]), count + i
        if len(hit):
            break
        count += d.size
    if best > DEFECT_THRESHOLD:
        return best, where, where + 1
    return best, None, count


@dataclass
class IdentityResult:
    """One identity's verdict, its largest or first violating defect, the
    witness tuple for a violation, and how many candidate tuples the search
    went through (up to and including the witness)."""

    verdict: str  # "holds_on_samples" | "violated"
    defect: float
    witness: list | None = None  # list of coefficient vectors
    candidates: int = 0

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "defect": self.defect,
            "witness": self.witness,
            "candidates": self.candidates,
        }


@dataclass
class IdentityReport:
    results: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> IdentityResult:
        return self.results[name]

    def to_dict(self) -> dict:
        return {name: res.to_dict() for name, res in self.results.items()}


def check_identities(spec: AlgebraSpec, samples: int = 5, seed: int = 0) -> IdentityReport:
    """Evaluate all identities on basis tuples and seeded random elements.

    The elements are the basis (females first), the mixed pairs e_i + m_p
    and ``samples`` random elements with coordinates uniform in [-1, 1].
    Singles are the mixed pairs, then the basis, then the random elements.
    Pairs are every (basis or mixed pair, basis element), then each random
    element with the next one; triples are every basis triple, then each
    random element with the next two (cyclically).

    Each identity's defects (L1 norms) come a block of candidates at a time
    from contractions over the structure tensor.  For the violated
    identities the search stops at the first witness with defect above the
    threshold.  Flexibility holds by commutativity: x(yx) and (xy)x are both
    (xy) L_x, so it is reported with defect 0.0, no witness and 0
    candidates, without a search.  Raises ValueError on an algebra with a
    non-finite structure constant, and on a finite one whose products
    overflow to a non-finite defect.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _admit(spec)
    n, nu, dim = spec.n, spec.nu, spec.dim
    # drawing uniform(n) then uniform(nu) per element is one (samples, dim) draw
    rand = np.random.default_rng(seed).uniform(-1, 1, (samples, dim))
    mixed = np.hstack([np.repeat(np.eye(n), nu, axis=0), np.tile(np.eye(nu), (n, 1))])
    # candidate tuples index into: basis, then mixed pairs, then random
    pool = np.concatenate([np.eye(dim), mixed, rand])
    r0 = dim + n * nu
    singles = np.concatenate([np.arange(dim, r0), np.arange(dim), r0 + np.arange(samples)])
    per_block = max(1, BLOCK_FLOATS // dim**2)

    def pair_blocks(defect):
        for s in range(0, r0, per_block):
            yield defect(pool[s : min(s + per_block, r0)], np.eye(dim), spec)
        yield defect(rand, np.roll(rand, -1, axis=0)[:, None], spec)

    def single_blocks(defect):
        for s in range(0, len(singles), per_block):
            X = pool[singles[s : s + per_block]]
            yield defect(X, X[:, None], spec)

    def random_tuple(i, size):
        return [r0 + (i + k) % samples for k in range(size)]

    def pair_at(t):
        return divmod(t, dim) if t < r0 * dim else random_tuple(t - r0 * dim, 2)

    def triple_at(t):
        return np.unravel_index(t, (dim,) * 3) if t < dim**3 else random_tuple(t - dim**3, 3)

    report = IdentityReport()

    def record(name, found, tuple_at):
        defect, where, count = found
        witness = None if where is None else [pool[k].tolist() for k in tuple_at(where)]
        verdict = "violated" if defect > DEFECT_THRESHOLD else "holds_on_samples"
        report.results[name] = IdentityResult(verdict, defect, witness, count)

    # an overflowing product shows as a non-finite defect, which _scan rejects
    with np.errstate(over="ignore", invalid="ignore"):
        E = spec._left_rows()
        triples = _triple_terms(spec, E, rand)
        record("associativity", _scan((_l1(t1 - t2) for t1, t2, _ in triples)), triple_at)
        report.results["flexibility"] = IdentityResult("holds_on_samples", 0.0)
        record("alternativity", _scan(pair_blocks(_alternativity)), pair_at)
        record("jordan", _scan(pair_blocks(_jordan)), pair_at)
        record(
            "power_associativity",
            _scan(single_blocks(_power_associativity)),
            lambda t: [singles[t]],
        )
        triples = _triple_terms(spec, E, rand)
        record("jacobi", _scan((_l1(t1 + t2 + t3) for t1, t2, t3 in triples)), triple_at)
    return report
