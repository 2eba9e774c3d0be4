"""Core algebra: structure-constant tensors, multiplication and basis changes.

An algebra of type (n, nu) has a basis of n female generators and nu male
generators.  Same-sex products vanish; a mixed product e_i * m_p expands on
the whole basis with coefficients gamma[i, p, :] (female part) and
gamma_tilde[i, p, :] (male part), and each coefficient row sums to 1.

Indices are 1-based in error messages to match the usual mathematical
notation; storage is 0-based.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch, SingularBasisChange

SUM_TOL = 1e-12
# entries in [-NEG_TOL, 0) count as zero when testing stochasticity
NEG_TOL = 1e-15


def _readonly(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class AlgebraSpec:
    """Structure constants of an algebra of type (n, nu).

    gamma has shape (n, nu, n): gamma[i, p, k] is the weight of female
    generator k in the product of female i with male p.  gamma_tilde has
    shape (n, nu, nu) and carries the male weights.

    Both are read-only views of one buffer of shape (n, nu, n + nu), whose
    last axis holds the full product e_i m_p on the basis.  ``kernel`` is
    the same buffer as an (n * nu, n + nu) matrix, so the product of any
    mixed coefficient matrix c[i, p] is the contraction c.ravel() @ kernel.
    """

    n: int
    nu: int
    gamma: np.ndarray
    gamma_tilde: np.ndarray
    kernel: np.ndarray = field(init=False, repr=False, compare=False)
    _finite: bool = field(init=False, repr=False, compare=False)
    _stochastic: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1 or self.nu < 1:
            raise ShapeMismatch(f"need n, nu >= 1, got ({self.n}, {self.nu})")
        g = np.asarray(self.gamma, dtype=float)
        gt = np.asarray(self.gamma_tilde, dtype=float)
        if g.shape != (self.n, self.nu, self.n):
            raise ShapeMismatch(
                f"gamma has shape {g.shape}, expected {(self.n, self.nu, self.n)}"
            )
        if gt.shape != (self.n, self.nu, self.nu):
            raise ShapeMismatch(
                f"gamma_tilde has shape {gt.shape}, expected {(self.n, self.nu, self.nu)}"
            )
        buf = _readonly(np.concatenate([g, gt], axis=2))
        object.__setattr__(self, "gamma", buf[:, :, : self.n])
        object.__setattr__(self, "gamma_tilde", buf[:, :, self.n :])
        object.__setattr__(self, "kernel", buf.reshape(self.n * self.nu, self.dim))
        finite = bool(np.isfinite(buf).all())
        object.__setattr__(self, "_finite", finite)
        object.__setattr__(self, "_stochastic", finite and bool((buf >= -NEG_TOL).all()))

    @property
    def dim(self) -> int:
        return self.n + self.nu

    def row_sums(self) -> np.ndarray:
        """Per-(i, p) sum of all structure constants; 1 for a valid algebra."""
        return self.gamma.sum(axis=2) + self.gamma_tilde.sum(axis=2)

    def female_row_sums(self) -> np.ndarray:
        """gamma_ip = sum_k gamma[i, p, k], shape (n, nu)."""
        return self.gamma.sum(axis=2)

    def male_row_sums(self) -> np.ndarray:
        """gamma~_ip = sum_r gamma_tilde[i, p, r], shape (n, nu)."""
        return self.gamma_tilde.sum(axis=2)

    def is_finite(self) -> bool:
        """All structure constants finite."""
        return self._finite

    def is_stochastic(self) -> bool:
        """All structure constants finite and non-negative (within NEG_TOL)."""
        return self._stochastic

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "nu": self.nu,
            "gamma": self.gamma.tolist(),
            "gamma_tilde": self.gamma_tilde.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AlgebraSpec":
        try:
            return cls(int(d["n"]), int(d["nu"]), d["gamma"], d["gamma_tilde"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ShapeMismatch(f"malformed algebra dictionary: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "AlgebraSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class Element:
    """Coefficient vector split into female part x and male part y."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _readonly(np.atleast_1d(self.x)))
        object.__setattr__(self, "y", _readonly(np.atleast_1d(self.y)))

    @classmethod
    def from_vector(cls, v, n: int) -> "Element":
        v = np.asarray(v, dtype=float)
        return cls(v[:n], v[n:])

    @classmethod
    def _view(cls, x: np.ndarray, y: np.ndarray) -> "Element":
        """Wrap read-only 1-D float arrays as they are, skipping __post_init__."""
        el = object.__new__(cls)
        object.__setattr__(el, "x", x)
        object.__setattr__(el, "y", y)
        return el

    @classmethod
    def zero(cls, spec: AlgebraSpec) -> "Element":
        return cls(np.zeros(spec.n), np.zeros(spec.nu))

    @classmethod
    def basis_female(cls, spec: AlgebraSpec, i: int) -> "Element":
        x = np.zeros(spec.n)
        x[i] = 1.0
        return cls(x, np.zeros(spec.nu))

    @classmethod
    def basis_male(cls, spec: AlgebraSpec, p: int) -> "Element":
        y = np.zeros(spec.nu)
        y[p] = 1.0
        return cls(np.zeros(spec.n), y)

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.x, self.y])

    def __add__(self, other: "Element") -> "Element":
        return Element(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Element") -> "Element":
        return Element(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Element":
        return Element(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def conforms(self, spec: AlgebraSpec) -> bool:
        return self.x.shape == (spec.n,) and self.y.shape == (spec.nu,)


# Trajectories use the same representation as algebra elements.
State = Element


@dataclass(frozen=True)
class BasisChange:
    """Column-stochastic-sum basis change: new female basis a_i = sum_j alpha[j, i] e_j."""

    alpha: np.ndarray
    alpha_tilde: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", _readonly(self.alpha))
        object.__setattr__(self, "alpha_tilde", _readonly(self.alpha_tilde))

    def column_sums_ok(self, tol: float = SUM_TOL) -> bool:
        return bool(
            np.all(np.abs(self.alpha.sum(axis=0) - 1.0) <= tol)
            and np.all(np.abs(self.alpha_tilde.sum(axis=0) - 1.0) <= tol)
        )


@dataclass
class ValidationReport:
    is_gonosomal: bool
    is_stochastic: bool
    violations: list = field(default_factory=list)


def _entry_violations(kind: str, tensors, is_bad) -> list:
    return [
        {
            "kind": kind,
            "tensor": name,
            "index": tuple(int(v) + 1 for v in idx),
            "value": float(tensor[tuple(idx)]),
        }
        for name, tensor in tensors
        for idx in np.argwhere(is_bad(tensor))
    ]


def validate(spec: AlgebraSpec) -> ValidationReport:
    """Check finiteness, the defining row-sum constraint and non-negativity.

    Each violation is reported as a dict with a "kind" key: "row_sum"
    entries carry the offending 1-based (i, p) pair and its sum,
    "nonfinite_entry" and "negative_entry" entries carry the tensor name,
    index and value.  A non-finite structure constant makes the algebra
    neither gonosomal nor stochastic.
    """
    violations = []
    sums = spec.row_sums()
    bad = np.argwhere(np.abs(sums - 1.0) > SUM_TOL)
    for i, p in bad:
        violations.append(
            {"kind": "row_sum", "i": int(i) + 1, "p": int(p) + 1, "sum": float(sums[i, p])}
        )
    tensors = (("gamma", spec.gamma), ("gamma_tilde", spec.gamma_tilde))
    violations += _entry_violations("nonfinite_entry", tensors, lambda t: ~np.isfinite(t))
    is_gonosomal = len(violations) == 0
    neg_violations = _entry_violations("negative_entry", tensors, lambda t: t < -NEG_TOL)
    return ValidationReport(
        is_gonosomal=is_gonosomal,
        is_stochastic=is_gonosomal and not neg_violations,
        violations=violations + neg_violations,
    )


def multiply(a: Element, b: Element, spec: AlgebraSpec) -> Element:
    """Commutative bilinear product determined by the structure constants."""
    for el in (a, b):
        if not el.conforms(spec):
            raise ShapeMismatch(
                f"element of shape ({el.x.shape[0]}, {el.y.shape[0]}) does not "
                f"conform to type ({spec.n}, {spec.nu})"
            )
    # mixed coefficient a_i b_p + a_p b_i for the (female i, male p) pair
    c = np.outer(a.x, b.y) + np.outer(b.x, a.y)
    return Element.from_vector(c.ravel() @ spec.kernel, spec.n)


def omega(a: Element) -> float:
    """Sum of all coordinates (total population weight)."""
    return float(a.x.sum() + a.y.sum())


def change_basis(spec: AlgebraSpec, bc: BasisChange) -> AlgebraSpec:
    """Structure constants in the new basis a_i = sum_j alpha[j, i] e_j.

    Both matrices must have unit column sums and be invertible.
    """
    alpha, alpha_t = bc.alpha, bc.alpha_tilde
    if alpha.shape != (spec.n, spec.n) or alpha_t.shape != (spec.nu, spec.nu):
        raise ShapeMismatch("basis-change matrices do not match the algebra type")
    if abs(np.linalg.det(alpha)) < 1e-12 or abs(np.linalg.det(alpha_t)) < 1e-12:
        raise SingularBasisChange("basis-change matrix is numerically singular")
    alpha_inv = np.linalg.inv(alpha)
    alpha_t_inv = np.linalg.inv(alpha_t)
    # product of new generators expanded in the old basis, then re-expressed:
    # e_k = sum_m alpha_inv[m, k] a_m
    new_gamma = np.einsum(
        "ji,qp,jqk,mk->ipm", alpha, alpha_t, spec.gamma, alpha_inv
    )
    new_gamma_tilde = np.einsum(
        "ji,qp,jqr,sr->ips", alpha, alpha_t, spec.gamma_tilde, alpha_t_inv
    )
    return AlgebraSpec(spec.n, spec.nu, new_gamma, new_gamma_tilde)


def opposite(spec: AlgebraSpec) -> AlgebraSpec:
    """The type-(nu, n) algebra with female and male roles exchanged."""
    gamma_o = np.transpose(spec.gamma_tilde, (1, 0, 2))
    gamma_tilde_o = np.transpose(spec.gamma, (1, 0, 2))
    return AlgebraSpec(spec.nu, spec.n, gamma_o, gamma_tilde_o)


def swap_map(spec: AlgebraSpec) -> np.ndarray:
    """Permutation matrix sending spec coordinates to opposite(spec) coordinates."""
    d = spec.dim
    phi = np.zeros((d, d))
    for i in range(spec.n):
        phi[spec.nu + i, i] = 1.0  # e_i -> male generator i of the opposite
    for p in range(spec.nu):
        phi[p, spec.n + p] = 1.0  # m_p -> female generator p of the opposite
    return phi


def random_stochastic(n: int, nu: int, seed: int) -> AlgebraSpec:
    """Random stochastic algebra: each (i, p) row is uniform-normalized."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(size=(n, nu, n + nu))
    rows /= rows.sum(axis=2, keepdims=True)
    return AlgebraSpec(n, nu, rows[:, :, :n], rows[:, :, n:])
