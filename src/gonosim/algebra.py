"""Core algebra: structure-constant tensors, multiplication and basis changes.

An algebra of type (n, nu) has a basis of n female generators and nu male
generators.  Same-sex products vanish; a mixed product e_i * m_p expands on
the whole basis with coefficients gamma[i, p, :] (female part) and
gamma_tilde[i, p, :] (male part), and each coefficient row sums to 1.

Indices are 1-based in error messages to match the usual mathematical
notation; storage is 0-based.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import stat
from dataclasses import dataclass, field

import numpy as np

from .errors import NotStochastic, ShapeMismatch, SingularBasisChange

SUM_TOL = 1e-12
# entries in [-NEG_TOL, 0) count as zero when testing stochasticity
NEG_TOL = 1e-15
# a basis change or an isomorphism with |det| below this is numerically singular
SINGULAR_DET_TOL = 1e-12

# the C encoder, which refuses NaN and infinities instead of writing tokens
# that are not JSON
_JSON = json.JSONEncoder(allow_nan=False)


def _finite_or_null(obj):
    """obj with every non-finite float in it replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def json_line(obj) -> str:
    """obj as one line of compact JSON with a trailing newline.

    Floats keep their repr, so they read back bit for bit.  A non-finite
    float is written as null, as JavaScript's JSON.stringify does: NaN and
    Infinity are not JSON.  Only a payload holding one is encoded twice.
    """
    try:
        return _JSON.encode(obj) + "\n"
    except ValueError:
        return _JSON.encode(_finite_or_null(obj)) + "\n"


def write_text(path, text: str) -> None:
    """Write text to path in place: the file ends holding exactly its bytes.

    An existing regular file is overwritten from its start and then cut to
    the new length, never truncated to zero first: on ext4, closing a file
    that was truncated to zero starts a writeback (auto_da_alloc), which
    costs more than the write itself.  Otherwise this is a text-mode open
    for writing: symlinks are followed, the inode, its hard links and its
    mode are kept, a new file gets 0o666 & ~umask, and a path that is not a
    regular file (/dev/null, a FIFO) is written without the cut.  A crash
    mid-write can leave the new bytes over the tail of the old ones.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        done = 0
        while done < len(data):
            done += os.write(fd, data[done:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, done)
    finally:
        os.close(fd)


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only in place: for arrays no caller holds."""
    a.setflags(write=False)
    return a


def _times(A: np.ndarray, M: np.ndarray, rowwise: bool) -> np.ndarray:
    """A @ M for a stack A (..., k); with rowwise, one stacked call of a product per row.

    A product of the whole stack may round a row differently than the same
    row alone; the row-wise products give every row the bits of a one-row
    call, whatever the other rows.
    """
    return (A[..., None, :] @ M)[..., 0, :] if rowwise else A @ M


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
        buf = _frozen(np.concatenate([g, gt], axis=2))  # a new array: freezing it freezes no caller's
        object.__setattr__(self, "gamma", buf[:, :, : self.n])
        object.__setattr__(self, "gamma_tilde", buf[:, :, self.n :])
        object.__setattr__(self, "kernel", buf.reshape(self.n * self.nu, self.dim))
        finite = bool(np.isfinite(buf).all())
        object.__setattr__(self, "_finite", finite)
        object.__setattr__(self, "_stochastic", finite and bool((buf >= -NEG_TOL).all()))

    @property
    def dim(self) -> int:
        return self.n + self.nu

    @functools.cached_property
    def _structure_tensor(self) -> np.ndarray:
        """M[a, b, :] = e_a e_b on the basis, females first, shape (dim, dim, dim).

        Only the mixed-sex blocks are non-zero, and M is symmetric in a, b.
        Built on first use, not with the spec: a (32,32) M holds 2.1 MB.
        Read-only.
        """
        n, dim = self.n, self.dim
        K = self.kernel.reshape(n, self.nu, dim)
        M = np.zeros((dim, dim, dim))
        M[:n, n:] = K
        M[n:, :n] = K.transpose(1, 0, 2)
        return _frozen(M)

    @functools.cached_property
    def _bound_constants(self) -> tuple[float, float, np.ndarray, np.ndarray]:
        """The bound verifiers' constants, built on first use: min sqrt(gamma_ip gamma~_ip), max
        gamma_ip gamma~_pq (rounding is monotone, so one of the four products of the extreme row
        sums), and the read-only column min and max of ``kernel``."""
        g, gt, K = self.female_row_sums(), self.male_row_sums(), self.kernel
        max_cross = max(a * b for a in (g.min(), g.max()) for b in (gt.min(), gt.max()))
        return float(np.sqrt(g * gt).min()), float(max_cross), _frozen(K.min(axis=0)), _frozen(K.max(axis=0))

    @functools.cached_property
    def _pattern(self) -> tuple:
        """The rows of ``kernel != 0`` as tuples of bools, built on first use; a rounding residue
        below zero, which a stochastic kernel may hold, is not zero in W either."""
        return tuple(map(tuple, (self.kernel != 0.0).tolist()))

    def _w_rows(self, Z: np.ndarray, rowwise: bool = False) -> np.ndarray:
        """W(z) = z^2 / 2 at every row z of Z (..., dim), real or complex: the
        mixed products x_i y_p contracted with ``kernel``.  rowwise as in _times."""
        n = self.n
        P = Z[..., :n, None] * Z[..., None, n:]
        return _times(P.reshape(Z.shape[:-1] + (n * self.nu,)), self.kernel, rowwise)

    def _left_rows(self, Z: np.ndarray | None = None, rowwise: bool = False) -> np.ndarray:
        """Left multiplications L_z of the rows z of Z (..., dim): L[..., k, :] = z e_k.

        The product zw is w @ L_z, and J_W(z) is L_z^T.  One contraction with
        the structure tensor; real or complex, rowwise as in _times.  Without
        Z, the basis: L_(e_a) = M[a], the read-only tensor itself (no dim^4
        contraction with the identity).
        """
        M = self._structure_tensor
        if Z is None:
            return M
        dim = len(M)
        return _times(Z, M.reshape(dim, dim * dim), rowwise).reshape(Z.shape[:-1] + (dim, dim))

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
        write_text(path, json_line(self.to_dict()))

    @classmethod
    def load(cls, path) -> "AlgebraSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _admit(spec: AlgebraSpec, *states: "Element", operator: str = "W", stochastic: bool = False) -> None:
    """The admission rules of every entry point, checked in this order.

    ValueError for a non-finite structure constant, then for an operator
    other than "W" or "V", ShapeMismatch for a state that does not conform
    to the type of spec, and NotStochastic when stochastic is set and spec
    is not stochastic.  No state coordinate is checked: W steps inf too.
    """
    if not spec.is_finite():
        raise ValueError("algebra has a non-finite structure constant")
    if operator not in ("W", "V"):
        raise ValueError(f"operator must be 'W' or 'V', got {operator!r}")
    for z in states:
        if not z.conforms(spec):
            raise ShapeMismatch(f"a state of type {z._type()} does not conform to type ({spec.n}, {spec.nu})")
    if stochastic and not spec.is_stochastic():
        raise NotStochastic("this needs a stochastic algebra: finite, non-negative structure constants")


class Element:
    """A state z = (x, y): one read-only float vector, females first.

    x (the first n coordinates) and y (the rest) are read-only views of
    ``vector``.  Element(x, y) and from_vector copy their input once, so a
    caller's array is neither frozen nor aliased.  A part with more than
    one axis, or an n outside 0..len(v), raises ShapeMismatch, as do the
    sum and difference of elements of two types.
    """

    __slots__ = ("_v", "_n")

    def __init__(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.ndim > 1 or y.ndim > 1:
            raise ShapeMismatch(f"element parts must be vectors, got shapes {x.shape} and {y.shape}")
        self._v = _frozen(np.concatenate((x, y), axis=None))
        self._n = x.size

    @classmethod
    def from_vector(cls, v, n: int) -> "Element":
        v, n = np.array(v, dtype=float), operator.index(n)
        if v.ndim != 1 or not 0 <= n <= len(v):
            raise ShapeMismatch(f"cannot split a vector of shape {v.shape} after {n} female coordinates")
        return cls._wrap(_frozen(v), n)

    @classmethod
    def _wrap(cls, v: np.ndarray, n: int) -> "Element":
        """The element of a read-only 1-D float vector v, as it is: no copy, no check."""
        el = object.__new__(cls)
        el._v, el._n = v, n
        return el

    @classmethod
    def zero(cls, spec: AlgebraSpec) -> "Element":
        return cls(np.zeros(spec.n), np.zeros(spec.nu))

    @classmethod
    def basis_female(cls, spec: AlgebraSpec, i: int) -> "Element":
        return cls(np.eye(spec.n)[i], np.zeros(spec.nu))

    @classmethod
    def basis_male(cls, spec: AlgebraSpec, p: int) -> "Element":
        return cls(np.zeros(spec.n), np.eye(spec.nu)[p])

    @property
    def vector(self) -> np.ndarray:
        return self._v

    @property
    def x(self) -> np.ndarray:
        return self._v[: self._n]

    @property
    def y(self) -> np.ndarray:
        return self._v[self._n :]

    def _type(self) -> tuple[int, int]:
        return self._n, len(self._v) - self._n

    def _like(self, other: "Element") -> np.ndarray:
        """The vector of other, an element of this type (else ShapeMismatch)."""
        if other._type() != self._type():
            raise ShapeMismatch(f"elements of types {self._type()} and {other._type()} do not combine")
        return other._v

    def __add__(self, other: "Element") -> "Element":
        return Element._wrap(_frozen(self._v + self._like(other)), self._n)

    def __sub__(self, other: "Element") -> "Element":
        return Element._wrap(_frozen(self._v - self._like(other)), self._n)

    def __mul__(self, scalar: float) -> "Element":
        return Element._wrap(_frozen(self._v * float(scalar)), self._n)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Element(x={self.x!r}, y={self.y!r})"

    def conforms(self, spec: AlgebraSpec) -> bool:
        return self._n == spec.n and len(self._v) == spec.dim


# Trajectories use the same representation as algebra elements.
State = Element


@dataclass(frozen=True)
class BasisChange:
    """Column-stochastic-sum basis change: new female basis a_i = sum_j alpha[j, i] e_j."""

    alpha: np.ndarray
    alpha_tilde: np.ndarray

    def __post_init__(self):
        # read-only copies: the caller's arrays stay their own
        object.__setattr__(self, "alpha", _frozen(np.array(self.alpha, dtype=float, ndmin=1)))
        object.__setattr__(self, "alpha_tilde", _frozen(np.array(self.alpha_tilde, dtype=float, ndmin=1)))

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
    # the flags cached at construction prove a scan empty: a finite algebra has
    # no non-finite entry, a stochastic one no entry below -NEG_TOL
    tensors = (("gamma", spec.gamma), ("gamma_tilde", spec.gamma_tilde))
    if not spec.is_finite():
        violations += _entry_violations("nonfinite_entry", tensors, lambda t: ~np.isfinite(t))
    is_gonosomal = len(violations) == 0
    neg_violations = []
    if not spec.is_stochastic():
        neg_violations = _entry_violations("negative_entry", tensors, lambda t: t < -NEG_TOL)
    return ValidationReport(
        is_gonosomal=is_gonosomal,
        is_stochastic=is_gonosomal and not neg_violations,
        violations=violations + neg_violations,
    )


def multiply(a: Element, b: Element, spec: AlgebraSpec) -> Element:
    """Commutative bilinear product determined by the structure constants."""
    _admit(spec, a, b)
    # mixed coefficient a_i b_p + a_p b_i for the (female i, male p) pair
    c = np.outer(a.x, b.y) + np.outer(b.x, a.y)
    return Element._wrap(_frozen(c.ravel() @ spec.kernel), spec.n)


def omega(a: Element) -> float:
    """Sum of all coordinates (total population weight), one sum over the state vector."""
    return float(a.vector.sum())


def change_basis(spec: AlgebraSpec, bc: BasisChange) -> AlgebraSpec:
    """Structure constants in the new basis a_i = sum_j alpha[j, i] e_j.

    Both matrices must have unit column sums (ValueError) and be invertible.
    """
    alpha, alpha_t = bc.alpha, bc.alpha_tilde
    if alpha.shape != (spec.n, spec.n) or alpha_t.shape != (spec.nu, spec.nu):
        raise ShapeMismatch("basis-change matrices do not match the algebra type")
    if not bc.column_sums_ok():
        raise ValueError("basis-change matrices need unit column sums")
    if abs(np.linalg.det(alpha)) < SINGULAR_DET_TOL or abs(np.linalg.det(alpha_t)) < SINGULAR_DET_TOL:
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
