"""Fixed points of the evolution operators and their stability.

Numeric side: multi-start Newton on op(z) - z with the analytic Jacobian,
run from every start at once, then deduplication and detection of
one-parameter families through null directions of the linearization.
Closed-form side: the known fixed points of the three scenario families.
Stability is read off Jacobian spectra; for the normalized operator the
Jacobian is restricted to the tangent space of the simplex.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, Element, State, multiply, omega
from .dynamics import apply_V, apply_W
from .errors import (
    AbsorbedToO,
    DegenerateParameter,
    NotIdempotent,
    NotNormalizable,
    NotStochastic,
    ShapeMismatch,
)
from .scenarios import (
    _hemophilia_degenerate_case,
    _hemophilia_fixed_point,
    hemophilia_spec,
    type11_spec,
    type21_spec,
)

RESIDUAL_TOL = 1e-10
DEDUP_TOL = 1e-6
# coordinates of an accepted root within this factor of max(1, |root|_inf) of
# zero are set to exactly 0.0, so structural zeros survive the Newton rounding
ROOT_ZERO_TOL = 1e-14
CASE_TOL = 1e-12
MARGINAL_BAND = 1e-9
NEWTON_MAX_ITER = 100
NEWTON_STEP_TOL = 1e-13  # a start stops once its L1 step falls below this
NEWTON_DIVERGENCE = 1e8  # a start fails once a coordinate exceeds this in size
# the normalized search rescales its iterate to unit sum unless the sum is this small
NEWTON_RENORM_MIN = 1e-12
# Tikhonov weight of the least-squares step taken where the Jacobian is singular
NEWTON_RIDGE = 1e-10

STABLE = "exponentially_stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"


def _times(A: np.ndarray, M: np.ndarray, rowwise: bool) -> np.ndarray:
    """A @ M; with rowwise, one stacked call of a product per row of A.

    A product of the whole stack may round a row differently than the same
    row alone; the row-wise products give every row the bits of a one-row
    call, whatever the other rows.
    """
    return (A[:, None] @ M)[:, 0] if rowwise else A @ M


def _W_rows(Z: np.ndarray, spec: AlgebraSpec, rowwise: bool = False) -> np.ndarray:
    """W at every row of Z, shape (B, dim): one contraction with the kernel."""
    n = spec.n
    return _times((Z[:, :n, None] * Z[:, None, n:]).reshape(len(Z), n * spec.nu), spec.kernel, rowwise)


def _second_derivative(spec: AlgebraSpec) -> np.ndarray:
    """The constant second derivative H of W, shape (dim, dim * dim).

    W is quadratic, so its Jacobian is linear in z: J_W(z) = (z @ H)
    reshaped to (dim, dim), with H[b, a * dim + c] = d^2 W_a / dz_b dz_c.
    The only non-zero blocks pair a female with a male coordinate.
    """
    n, dim = spec.n, spec.dim
    K = spec.kernel.reshape(n, spec.nu, dim)
    H = np.zeros((dim, dim, dim))
    H[n:, :, :n] = K.transpose(1, 2, 0)  # d/dy_p of dW_a/dx_i
    H[:n, :, n:] = K.transpose(0, 2, 1)  # d/dx_i of dW_a/dy_p
    return H.reshape(dim, dim * dim)


def _jacobian_W_rows(Z: np.ndarray, H: np.ndarray, rowwise: bool = False) -> np.ndarray:
    """Jacobian of W at every row of Z, shape (B, dim, dim): one product with H.

    H is the constant second derivative of W from _second_derivative;
    callers build it once and pass it to every call, so J_W costs one
    matmul for the whole stack.  rowwise as in _times.
    """
    dim = Z.shape[1]
    return _times(Z, H, rowwise).reshape(len(Z), dim, dim)


def _jacobian_V_rows(JW: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Ambient Jacobians of V = W / omega(W) from those of W and the W rows.

    By the quotient rule J_V = (I - V 1^T) J_W / omega(W); every omega(W)
    must be non-zero.
    """
    tot = W.sum(axis=1)
    V = W / tot[:, None]
    return (JW - V[:, :, None] * JW.sum(axis=1)[:, None, :]) / tot[:, None, None]


def jacobian_W(z: State, spec: AlgebraSpec) -> np.ndarray:
    """Analytic Jacobian of the unnormalized operator at z."""
    return _jacobian_W_rows(z.vector[None], _second_derivative(spec))[0]


@functools.cache
def _simplex_tangent_basis(dim: int) -> np.ndarray:
    """Orthonormal basis (columns) of the zero-sum subspace of R^dim.

    Computed once per dimension; the cached array is read-only.
    """
    ones = np.ones((dim, 1)) / np.sqrt(dim)
    q, _ = np.linalg.qr(np.eye(dim) - ones @ ones.T)
    # drop the column closest to the normal direction
    keep = [j for j in range(dim) if abs(ones[:, 0] @ q[:, j]) < 0.5]
    T = q[:, keep[: dim - 1]]
    T.flags.writeable = False
    return T


def _tangent_rows(JV: np.ndarray) -> np.ndarray:
    """Stack of ambient V Jacobians (B, dim, dim) projected as T^T J T."""
    T = _simplex_tangent_basis(JV.shape[1])
    return T.T @ JV @ T


def jacobian_V(z: State, spec: AlgebraSpec) -> np.ndarray:
    """Jacobian of the normalized operator restricted to the simplex tangent space.

    The ambient Jacobian (I - V(z) 1^T) J_W(z) / omega(W(z)) is projected
    onto an orthonormal zero-sum basis T as T^T J T; the resulting
    (dim-1) x (dim-1) matrix has the spectrum that governs stability
    within the simplex.  Raises NotStochastic and AbsorbedToO where V is
    undefined.
    """
    if not spec.is_stochastic():
        raise NotStochastic("normalized operator requires a stochastic algebra")
    Z = z.vector[None]
    W = _W_rows(Z, spec)
    if W.sum() == 0.0:
        raise AbsorbedToO()
    JW = _jacobian_W_rows(Z, _second_derivative(spec))
    return _tangent_rows(_jacobian_V_rows(JW, W))[0]


def _classify_radius(rho: float) -> str:
    if abs(rho - 1.0) <= MARGINAL_BAND:
        return MARGINAL
    return STABLE if rho < 1.0 else UNSTABLE


def classify_spectrum(eigenvalues: np.ndarray) -> str:
    return _classify_radius(float(np.abs(eigenvalues).max()) if eigenvalues.size else 0.0)


def _classify_rows(eigenvalues: np.ndarray) -> list[str]:
    """classify_spectrum of each row of a stack of spectra."""
    return [_classify_radius(rho) for rho in np.abs(eigenvalues).max(axis=1, initial=0.0).tolist()]


@dataclass
class FamilyDescriptor:
    base_point: np.ndarray
    direction: np.ndarray
    parameter_range_tested: tuple = (-0.1, 0.1)

    def contains(self, v: np.ndarray, tol: float = DEDUP_TOL) -> bool:
        rel = v - self.base_point
        proj = rel - (rel @ self.direction) * self.direction
        return float(np.abs(proj).sum()) < tol

    def to_dict(self) -> dict:
        return {
            "base_point": self.base_point.tolist(),
            "direction": self.direction.tolist(),
            "parameter_range_tested": list(self.parameter_range_tested),
        }


@dataclass
class FixedPointRecord:
    """A fixed point with its spectra and stability labels.

    ``diagnostics`` is set on the records of a numeric search and counts
    its Newton starts: ``attempted``, ``converged`` (accepted roots before
    deduplication), ``singular`` (took at least one least-squares step),
    and the failures ``nonfinite``, ``diverged``, ``rejected_residual``
    and, for V, ``absorbed`` (omega(W) vanished, or the root has no
    female or no male mass).  Each start ends either converged or in
    exactly one failure.
    """

    point: State
    operator: str
    residual: float
    w_eigenvalues: np.ndarray | None = None
    v_eigenvalues: np.ndarray | None = None
    stability_w: str | None = None
    stability_v: str | None = None
    family: FamilyDescriptor | None = None
    diagnostics: dict | None = None

    def to_dict(self) -> dict:
        def eigs(e):
            return None if e is None else [[re, im] for re, im in zip(e.real.tolist(), e.imag.tolist())]

        return {
            "point": self.point.vector.tolist(),
            "operator": self.operator,
            "residual": self.residual,
            "w_eigenvalues": eigs(self.w_eigenvalues),
            "v_eigenvalues": eigs(self.v_eigenvalues),
            "stability_w": self.stability_w,
            "stability_v": self.stability_v,
            "family": self.family.to_dict() if self.family else None,
            "diagnostics": self.diagnostics,
        }


def _residual(z: State, spec: AlgebraSpec, operator: str) -> float:
    op = apply_W if operator == "W" else apply_V
    return float(np.abs(op(z, spec).vector - z.vector).sum())


def _check_operator(operator: str) -> None:
    if operator not in ("W", "V"):
        raise ValueError(f"operator must be 'W' or 'V', got {operator!r}")


def _records(P: np.ndarray, spec: AlgebraSpec, operator: str) -> list[FixedPointRecord]:
    """The records of every row of P (B, dim), built in one pass.

    One W contraction gives the residuals, one product with the second
    derivative H the J_W stack and one stacked eigvals its spectra.  The V
    spectra come from one projected stack over the eligible rows: for V
    every row; for W the rows of a stochastic algebra that are
    non-negative with positive mass and, scaled to unit sum, have female
    and male mass, taken at that scaled point.  The products are row-wise
    (_times), so a row's record has the bits make_record gives it alone.
    Raises NotStochastic (V on a non-stochastic algebra) and AbsorbedToO
    where V is undefined.
    """
    _check_operator(operator)
    n = spec.n
    P = np.array(P, dtype=float).reshape(-1, spec.dim)
    P.flags.writeable = False  # the record points are views of its rows
    if not len(P):
        return []
    H = _second_derivative(spec)
    W = _W_rows(P, spec, rowwise=True)
    w_eigs = np.linalg.eigvals(_jacobian_W_rows(P, H, rowwise=True))
    if operator == "W":
        residual = np.abs(W - P).sum(axis=1)
        eligible = np.zeros(len(P), dtype=bool)
        Zn = P[eligible]
        if spec.is_stochastic():
            mass = P[:, :n].sum(axis=1) + P[:, n:].sum(axis=1)  # as omega() sums
            eligible = (P >= 0).all(axis=1) & (mass > 0)
            Zn = P[eligible] / mass[eligible, None]
            sexes = (Zn[:, :n] > 0).any(axis=1) & (Zn[:, n:] > 0).any(axis=1)
            eligible[eligible] = sexes
            Zn = Zn[sexes]
        Wn = _W_rows(Zn, spec, rowwise=True)
    else:
        if not spec.is_stochastic():
            raise NotStochastic("normalized operator requires a stochastic algebra")
        tot = W[:, :n].sum(axis=1) + W[:, n:].sum(axis=1)  # as apply_V sums
        if (tot == 0.0).any():
            raise AbsorbedToO()
        residual = np.abs(W / tot[:, None] - P).sum(axis=1)
        eligible = np.ones(len(P), dtype=bool)
        Zn, Wn = P, W
    if (Wn.sum(axis=1) == 0.0).any():
        raise AbsorbedToO()
    v_eigs = np.linalg.eigvals(
        _tangent_rows(_jacobian_V_rows(_jacobian_W_rows(Zn, H, rowwise=True), Wn))
    )
    v_spectra = iter(zip(v_eigs, _classify_rows(v_eigs)))

    records = []
    for p, res, we, sw, has_v in zip(
        P, residual.tolist(), w_eigs, _classify_rows(w_eigs), eligible.tolist()
    ):
        rec = FixedPointRecord(Element._view(p[:n], p[n:]), operator, res, we, stability_w=sw)
        if has_v:
            rec.v_eigenvalues, rec.stability_v = next(v_spectra)
        records.append(rec)
    return records


def make_record(z: State, spec: AlgebraSpec, operator: str = "W") -> FixedPointRecord:
    """Populate eigenvalues and stability labels for a fixed point.

    The residual is the L1 size of op(z) - z.  Both records carry the J_W
    spectrum and its label.  A V record carries the tangent-space V
    spectrum at z; a W record carries it at z scaled to unit sum, if the
    algebra is stochastic, z is non-negative with positive mass and the
    scaled point has female and male mass.  A one-row call of the pass the
    numeric search and the closed forms make over all their points.
    Raises ValueError for an operator other than "W" or "V".
    """
    _check_operator(operator)
    if not z.conforms(spec):
        raise ShapeMismatch("state does not conform to the algebra type")
    rec = _records(z.vector[None], spec, operator)[0]
    rec.point = z
    return rec


# per-start outcomes of the Newton search; 0 is success
_FAILURES = ("rejected_residual", "nonfinite", "diverged", "absorbed")
_REJECTED, _NONFINITE, _DIVERGED, _ABSORBED = range(1, len(_FAILURES) + 1)


def _op_rows(Z: np.ndarray, spec: AlgebraSpec, operator: str, H: np.ndarray | None = None):
    """op at every row of Z, the Jacobians of op - I if H is given, and the V-undefined mask.

    H is the second derivative of W (_second_derivative).  The mask marks
    the rows with omega(W) = 0 (none for W); values on those rows are
    meaningless.
    """
    W = _W_rows(Z, spec)
    J = None if H is None else _jacobian_W_rows(Z, H)
    absorbed = np.zeros(len(Z), dtype=bool)
    if operator == "V":
        absorbed = W.sum(axis=1) == 0.0
        W[absorbed] = 1.0  # stand-in values keep the quotients below finite
        if J is not None:
            J = _jacobian_V_rows(J, W)
        W /= W.sum(axis=1)[:, None]
    if J is not None:
        J -= np.eye(Z.shape[1])
    return W, J, absorbed


def _newton_steps(J: np.ndarray, F: np.ndarray):
    """Newton steps s with J s = -F for a stack of systems, and the mask of
    the systems whose Jacobian is singular (None when none is).

    One stacked solve.  If a Jacobian is singular, the systems whose LU
    factorization has a zero pivot (the ones a solve rejects) are flagged
    and each takes a ridge-regularized least-squares step; the others are
    solved in one stacked call.
    """
    try:
        return np.linalg.solve(J, -F[:, :, None])[:, :, 0], None
    except np.linalg.LinAlgError:
        pass
    singular = np.linalg.slogdet(J)[0] == 0
    regular = ~singular
    steps = np.empty_like(F)
    steps[regular] = np.linalg.solve(J[regular], -F[regular][:, :, None])[:, :, 0]
    ridge = NEWTON_RIDGE * np.eye(F.shape[1])
    for r in np.flatnonzero(singular):
        Jr, Fr = J[r], F[r]
        steps[r] = np.linalg.solve(Jr.T @ Jr + ridge, -Jr.T @ Fr)
    return steps, singular


def _newton(starts: np.ndarray, spec: AlgebraSpec, operator: str):
    """Newton's method on op(z) - z from every row of ``starts`` at once.

    Each iteration steps all the starts still running, with one W
    contraction, one product with the second derivative H of W (built once
    per call) for the batch of Jacobians, and one stacked solve.  A start
    stops when its L1 step falls below NEWTON_STEP_TOL or after
    NEWTON_MAX_ITER steps, and fails on a non-finite step or state, a
    coordinate beyond NEWTON_DIVERGENCE, or (V) a vanishing omega(W).  The
    V iterate is rescaled to unit sum after each step.  A stopped start is
    accepted if its residual is below RESIDUAL_TOL; accepted roots have
    their near-zero coordinates snapped to 0.0, and a V root without
    female or male mass is rejected as absorbed.

    Returns the final iterates (B, dim), the per-start outcome codes (0 for
    an accepted root, else 1 + index into _FAILURES) and the mask of
    starts that took a least-squares step.
    """
    X = np.array(starts, dtype=float)
    fate = np.zeros(len(X), dtype=int)
    singular = np.zeros(len(X), dtype=bool)
    rows = np.arange(len(X))
    H = _second_derivative(spec)
    for _ in range(NEWTON_MAX_ITER):
        if not rows.size:
            break
        Z = X[rows]
        opZ, J, absorbed = _op_rows(Z, spec, operator, H)
        s, took_ridge = _newton_steps(J, opZ - Z)
        if took_ridge is not None:
            singular[rows[took_ridge]] = True
        Z += s
        # a non-finite step always leaves a non-finite state, and NaN fails
        # the comparison, so one test over the batch clears every row
        if absorbed.any() or not np.abs(Z).max() <= NEWTON_DIVERGENCE:
            off = ~(np.abs(Z).max(axis=1) <= NEWTON_DIVERGENCE)
            nonfinite = off & ~np.isfinite(Z).all(axis=1)
            fate[rows[absorbed]] = _ABSORBED
            fate[rows[~absorbed & nonfinite]] = _NONFINITE
            fate[rows[~absorbed & off & ~nonfinite]] = _DIVERGED
            keep = ~(absorbed | off)
            rows, Z, s = rows[keep], Z[keep], s[keep]
        if operator == "V":
            tot = Z.sum(axis=1)
            Z /= np.where(np.abs(tot) > NEWTON_RENORM_MIN, tot, 1.0)[:, None]
        X[rows] = Z
        rows = rows[np.abs(s).sum(axis=1) >= NEWTON_STEP_TOL]

    done = np.flatnonzero(fate == 0)
    Z = X[done]
    opZ, _, absorbed = _op_rows(Z, spec, operator)
    fate[done[absorbed]] = _ABSORBED
    fate[done[~absorbed & ~(np.abs(opZ - Z).sum(axis=1) < RESIDUAL_TOL)]] = _REJECTED
    ok = done[fate[done] == 0]
    scale = np.maximum(1.0, np.abs(X[ok]).max(axis=1, initial=0.0))
    X[ok] = np.where(np.abs(X[ok]) <= ROOT_ZERO_TOL * scale[:, None], 0.0, X[ok])
    if operator == "V":
        n = spec.n
        female, male = np.abs(X[ok, :n].sum(axis=1)), np.abs(X[ok, n:].sum(axis=1))
        fate[ok[(female < DEDUP_TOL) | (male < DEDUP_TOL)]] = _ABSORBED
    return X, fate, singular


def _detect_family(v: np.ndarray, spec: AlgebraSpec, operator: str) -> FamilyDescriptor | None:
    """The line of fixed points through the root v, if there is one.

    A near-zero singular value of J - I gives the candidate direction (for
    V, of the tangent-space Jacobian, since V keeps the unit sum); the line
    counts as a family when both probes 0.1 away along it are fixed too.
    """
    z = Element.from_vector(v, spec.n)
    if operator == "W":
        T = np.eye(spec.dim)
        J = jacobian_W(z, spec) - T
    else:
        T = _simplex_tangent_basis(spec.dim)
        J = jacobian_V(z, spec) - np.eye(spec.dim - 1)
    _, svals, vt = np.linalg.svd(J)
    if svals[-1] >= 1e-8:
        return None
    direction = T @ vt[-1]
    for off in (-0.1, 0.1):
        cand = Element.from_vector(v + off * direction, spec.n)
        if _residual(cand, spec, operator) >= RESIDUAL_TOL:
            return None
    return FamilyDescriptor(base_point=v.copy(), direction=direction)


def solve_fixed_points_numeric(
    spec: AlgebraSpec,
    operator: str = "W",
    grid: int = 3,
    seed: int = 0,
    random_starts: int = 8,
) -> list[FixedPointRecord]:
    """Multi-start Newton search for fixed points.

    Starts on a grid over [0, 5]^dim (or the simplex for the normalized
    operator) plus seeded random points.  Roots are deduplicated by L1
    distance in start order; points lying on a detected one-parameter
    family collapse into a single family record.  The zero state is always
    included for the unnormalized operator.  Every record carries the
    search's diagnostics.  The V search raises NotStochastic on an algebra
    that is not stochastic; an operator other than "W" or "V" raises
    ValueError.
    """
    _check_operator(operator)
    if operator == "V" and not spec.is_stochastic():
        raise NotStochastic("normalized operator requires a stochastic algebra")
    rng = np.random.default_rng(seed)
    dim = spec.dim
    if operator == "W":
        parts = [np.zeros((1, dim))]
        if grid > 1:
            axes = np.linspace(0.0, 5.0, grid)
            mesh = np.meshgrid(*([axes] * dim), indexing="ij")
            parts.append(np.stack([m.ravel() for m in mesh], axis=1))
        # half the random starts stay near the unit box, the rest sample a
        # wide signed range so distant or partly negative roots are reachable
        near = random_starts - random_starts // 2
        parts.append(rng.uniform(0.0, 5.0, size=(near, dim)))
        parts.append(rng.uniform(-10.0, 40.0, size=(random_starts // 2, dim)))
        starts = np.vstack(parts)
    else:
        # one draw for all: the same gammas in the same order as a draw per start
        starts = rng.dirichlet(np.ones(dim), size=(grid**2 if grid > 1 else 0) + random_starts)

    found, fate, singular = _newton(starts, spec, operator)
    counts = np.bincount(fate, minlength=len(_FAILURES) + 1)
    diagnostics = {
        "attempted": len(fate),
        "converged": int(counts[0]),
        "singular": int(singular.sum()),
        **{key: int(c) for key, c in zip(_FAILURES, counts[1:])},
    }
    if operator == "W":
        del diagnostics["absorbed"]

    roots, families = _deduplicate(found[fate == 0], spec, operator)
    records = _records(np.vstack([roots, *(f.base_point for f in families)]), spec, operator)
    for rec, fam in zip(records[len(roots):], families):
        rec.family = fam
    for rec in records:
        rec.diagnostics = dict(diagnostics)
    return records


def _near(cands: np.ndarray, root: np.ndarray) -> np.ndarray:
    """Mask of the rows of cands within DEDUP_TOL (L1) of root: one broadcast."""
    return np.abs(cands - root).sum(axis=1) < DEDUP_TOL


def _deduplicate(accepted: np.ndarray, spec: AlgebraSpec, operator: str):
    """The distinct roots and the families among accepted roots, in start order.

    A root within DEDUP_TOL (L1) of a kept root, or on a found family, is
    dropped; a root on a new family is replaced by the family, which
    absorbs the non-zero kept roots on it.  The zero root comes first for
    W.  Each kept root marks the roots near it in one broadcast, so the
    numpy work grows with the number of distinct roots, not of starts, and
    the start-order pass runs in Python over the marks.
    """
    cands = accepted
    kept: list[int] = []  # rows of cands
    if operator == "W":
        cands = np.vstack([np.zeros((1, spec.dim)), accepted])
        kept.append(0)

    def marks(rows: list[int]) -> np.ndarray:
        near = np.zeros(len(cands), dtype=bool)
        for r in rows:
            near |= _near(cands, cands[r])
        return near

    near = marks(kept)
    free = (~near).tolist()
    families: list[FamilyDescriptor] = []
    for j in range(len(kept), len(cands)):
        if not free[j]:
            continue
        v = cands[j]
        if any(f.contains(v) for f in families):
            continue
        fam = _detect_family(v, spec, operator)
        if fam is not None:
            # absorb previously found isolated points that lie on the family
            kept = [r for r in kept if not (fam.contains(cands[r]) and np.abs(cands[r]).sum() > DEDUP_TOL)]
            families.append(fam)
            near = marks(kept)
        else:
            kept.append(j)
            near |= _near(cands, v)
        free = (~near).tolist()
    return cands[kept], families


# ---------------------------------------------------------------------------
# Closed forms for the scenario families
# ---------------------------------------------------------------------------


def _closed_form_records(
    points: list, spec: AlgebraSpec, family: FamilyDescriptor | None = None
) -> list[FixedPointRecord]:
    """W records of closed-form points in one pass; a family goes on the last point."""
    records = _records(np.array(points, dtype=float), spec, "W")
    if family is not None:
        records[-1].family = family
    return records


def closed_form_fixed_points_type11(gamma: float) -> list[FixedPointRecord]:
    """Fixed points (0, 0) and (1/(1-gamma), 1/gamma) of the type-(1,1) family."""
    if abs(gamma) < CASE_TOL or abs(gamma - 1.0) < CASE_TOL:
        raise DegenerateParameter("only the origin is fixed when gamma is 0 or 1")
    return _closed_form_records([[0.0, 0.0], [1.0 / (1.0 - gamma), 1.0 / gamma]], type11_spec(gamma))


def closed_form_fixed_points_type21(
    g1: float, g2: float, d1: float, d2: float
) -> list[FixedPointRecord]:
    """Full fixed-point case analysis for the type-(2,1) family.

    Branches on the determinant D = g1 d2 - g2 d1 of the female transfer
    matrix.  When D = 0 the male coordinate is forced to 1/(g1 + d2) and
    the female part solves a rank-one linear system; when D != 0 each
    real root of D y^2 - (g1 + d2) y + 1 = 0 yields at most one point.
    The origin is always included.
    """
    points, family = _type21_points(g1, g2, d1, d2)
    return _closed_form_records(points, type21_spec(g1, g2, d1, d2), family)


def _type21_points(g1: float, g2: float, d1: float, d2: float):
    """The type-(2,1) fixed points of the case analysis, origin first, and
    the family through the last one if the fixed points form a line."""
    for name, v in (("g1", g1), ("g2", g2), ("d1", d1), ("d2", d2)):
        if v < 0:
            raise DegenerateParameter(f"{name} must be non-negative")
    g = 1.0 - g1 - g2
    d = 1.0 - d1 - d2
    if g < -CASE_TOL or d < -CASE_TOL:
        raise DegenerateParameter("male shares 1-g1-g2 and 1-d1-d2 must be non-negative")
    points = [[0.0, 0.0, 0.0]]
    family = None
    D = g1 * d2 - g2 * d1

    def near(a, b=0.0):
        return abs(a - b) < CASE_TOL

    if near(D):
        if near(g1 + d2) or near(g1 + d2, 1.0):
            return points, family
        y = 1.0 / (g1 + d2)
        if not near(g1) and not near(g1, 1.0) and near(d2) and near(g2):
            points.append([1.0 / (1.0 - g1), 0.0, 1.0 / g1])
        elif near(g1) and not near(d2) and not near(d2, 1.0) and near(d1):
            points.append([0.0, 1.0 / (1.0 - d2), 1.0 / d2])
        elif (
            not near(g1)
            and not near(d2)
            and not near(g1 + d2, 1.0)
            and not near(g2)
            and not near(d1)
        ):
            den = (g1 + g2) * (1.0 - g1 - d2)
            points.append([g1 / den, g2 / den, y])
        return points, family

    # D != 0: roots of the male-coordinate quadratic
    if near(d1) and near(g2):
        if near(g1, d2):
            if near(g1, 1.0):
                raise DegenerateParameter("family requires g1 = d2 different from 1")
            base = np.array([0.5 / (1.0 - g1), 0.5 / (1.0 - g1), 1.0 / g1])
            direction = np.array([1.0, -1.0, 0.0])
            family = FamilyDescriptor(base_point=base, direction=direction / np.linalg.norm(direction))
            points.append(base)
        else:
            if not near(g1, 1.0):
                points.append([1.0 / (1.0 - g1), 0.0, 1.0 / g1])
            if not near(d2, 1.0):
                points.append([0.0, 1.0 / (1.0 - d2), 1.0 / d2])
        return points, family

    if near(d1) and not near(g2):
        if near(g1, d2):
            if near(g1, 1.0):
                raise DegenerateParameter("point requires g1 different from 1")
            points.append([0.0, 1.0 / (1.0 - g1), 1.0 / g1])
        else:
            den = (1.0 - g1) * (g1 + g2 - d2)
            if not near(g1, 1.0) and not near(g1 + g2 - d2):
                points.append([(g1 - d2) / den, g2 / den, 1.0 / g1])
            if not near(d2, 1.0):
                points.append([0.0, 1.0 / (1.0 - d2), 1.0 / d2])
        return points, family

    if not near(d1) and near(g2):
        if near(g1, d2):
            if near(g1, 1.0):
                raise DegenerateParameter("point requires g1 different from 1")
            points.append([1.0 / (1.0 - g1), 0.0, 1.0 / g1])
        else:
            if not near(g1, 1.0):
                points.append([1.0 / (1.0 - g1), 0.0, 1.0 / g1])
            den = (1.0 - d2) * (d1 + d2 - g1)
            if not near(d2, 1.0) and not near(d1 + d2 - g1):
                points.append([d1 / den, (d2 - g1) / den, 1.0 / d2])
        return points, family

    # both g2 and d1 nonzero: two real roots since the discriminant is positive
    roots = np.roots([D, -(g1 + d2), 1.0])
    for y in sorted(float(r.real) for r in roots if abs(r.imag) < CASE_TOL):
        Q = (g * d1 - d * g1) * y + d
        if near(Q):
            raise DegenerateParameter("fixed-point denominator vanishes at a quadratic root")
        points.append([d1 * y / Q, (1.0 - g1 * y) / Q, y])
    return points, family


def closed_form_fixed_points_hemophilia(mu: float, eta: float) -> list[FixedPointRecord]:
    """Fixed points of the hemophilia family when mu = 1 or eta = 1."""
    if not (0.0 <= mu <= 1.0 and 0.0 <= eta <= 1.0):
        raise DegenerateParameter("mu and eta must lie in [0, 1]")
    mu_is_one, eta_is_one = _hemophilia_degenerate_case(mu, eta)
    points = [[0.0, 0.0, 0.0, 0.0]]
    if not mu_is_one and eta_is_one:
        points.append(_hemophilia_fixed_point(mu))
    return _closed_form_records(points, hemophilia_spec(mu, eta))


# ---------------------------------------------------------------------------
# Correspondences and stability transfer
# ---------------------------------------------------------------------------


def idempotent_correspondence(fp: FixedPointRecord, spec: AlgebraSpec) -> Element:
    """Half of a fixed point of the unnormalized operator squares to itself."""
    half = Element(fp.point.x / 2.0, fp.point.y / 2.0)
    defect = multiply(half, half, spec) - half
    if float(np.abs(defect.vector).sum()) > 1e-10:
        raise NotIdempotent(
            f"half of the supplied point fails to square to itself (defect {np.abs(defect.vector).sum():.3e})"
        )
    return half


def normalize_fixed_point(fp: FixedPointRecord) -> State:
    """Scale a non-negative fixed point to unit coordinate sum."""
    v = fp.point.vector
    if np.any(v < 0):
        raise NotNormalizable("point has a negative component")
    total = omega(fp.point)
    if total == 0.0:
        raise NotNormalizable("point has zero coordinate sum")
    return Element(fp.point.x / total, fp.point.y / total)


@dataclass
class TransferReport:
    stability_w: str
    stability_v: str
    consistent: bool
    w_spectral_radius: float
    v_spectral_radius: float


def stability_transfer_check(fp: FixedPointRecord, spec: AlgebraSpec) -> TransferReport:
    """Compare stability of a fixed point with that of its normalization.

    Stability of the unnormalized operator must carry over to the
    normalized one; the reverse implication is not expected and its
    failure is not an inconsistency.
    """
    zn = normalize_fixed_point(fp)
    w_eigs = np.linalg.eigvals(jacobian_W(fp.point, spec))
    v_eigs = np.linalg.eigvals(jacobian_V(zn, spec))
    sw = classify_spectrum(w_eigs)
    sv = classify_spectrum(v_eigs)
    consistent = not (sw == STABLE and sv != STABLE)
    return TransferReport(
        stability_w=sw,
        stability_v=sv,
        consistent=consistent,
        w_spectral_radius=float(np.abs(w_eigs).max()),
        v_spectral_radius=float(np.abs(v_eigs).max()) if v_eigs.size else 0.0,
    )
