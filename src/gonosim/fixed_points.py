"""Fixed points of the evolution operators and their stability.

Numeric side: for W, where the coordinates a fixed point can hold leave
one female or one male type, the exact set from the eigenpairs of the
transfer matrix of that restricted algebra; otherwise multi-start
Newton on op(z) - z with the analytic Jacobian, run from every start at
once, then deduplication and detection of one-parameter families through
null directions of the linearization.
Closed-form side: records of the scenario fixed points, whose formulas
live in scenarios.
Stability is read off Jacobian spectra; for the normalized operator the
Jacobian is restricted to the tangent space of the simplex.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, Element, State, _admit, _frozen, multiply, omega, opposite, swap_map
from .errors import AbsorbedToO, NotIdempotent, NotNormalizable
from .scenarios import (
    PARAM_TOL,
    hemophilia_fixed_points,
    hemophilia_spec,
    type11_fixed_points,
    type11_spec,
    type21_fixed_points,
    type21_spec,
)

RESIDUAL_TOL = 1e-10
DEDUP_TOL = 1e-6
# coordinates of an accepted root within this factor of max(1, |root|_inf) of
# zero are set to exactly 0.0, so structural zeros survive the Newton rounding
ROOT_ZERO_TOL = 1e-14
MARGINAL_BAND = 1e-9
# J - I has a candidate family direction when its smallest singular value is below this
FAMILY_SINGULAR_TOL = 1e-8
NEWTON_MAX_ITER = 100
NEWTON_STEP_TOL = 1e-13  # a start stops once its L1 step falls below this
NEWTON_DIVERGENCE = 1e8  # a start fails once a coordinate exceeds this in size
# the normalized search rescales its iterate to unit sum unless the sum is this small
NEWTON_RENORM_MIN = 1e-12
# Tikhonov weight of the least-squares step taken where the Jacobian is singular
NEWTON_RIDGE = 1e-10
# transfer-matrix eigenvalues closer than this times max(1, ||A||_1) count as
# repeated, and the exact W search falls back to the Newton grid; well above
# the ~sqrt(eps) ||A|| split of a defective pair
EIGEN_REPEAT_TOL = 1e-6

STABLE = "exponentially_stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"


def _op_rows(Z: np.ndarray, spec: AlgebraSpec, operator: str, jacobians: bool = False, rowwise: bool = False):
    """op at every row of Z, the J_W and J_op stacks if jacobians, and the V-undefined mask.

    The one evaluator of W, V and their ambient Jacobians, on the spec's row
    contractions: W is AlgebraSpec._w_rows and J_W(z) = L_z^T, from
    AlgebraSpec._left_rows.  V = W / omega(W) and, by the quotient rule,
    J_V = (I - V 1^T) J_W / omega(W), both with omega(W) = W.sum(axis=1),
    one sum over the row as omega and the V stepper take it.  For W, J_op
    is J_W.  The mask marks the rows with omega(W) = 0 (none for W); values
    on those rows are meaningless.
    rowwise as in algebra._times.
    """
    op = spec._w_rows(Z, rowwise)
    # C order: J_V's column sums and the tangent products round differently on other layouts
    JW = np.ascontiguousarray(spec._left_rows(Z, rowwise).transpose(0, 2, 1)) if jacobians else None
    if operator == "W":
        return op, JW, JW, np.zeros(len(Z), dtype=bool)
    tot = op.sum(axis=1)
    absorbed = tot == 0.0
    if np.count_nonzero(absorbed):  # on a few rows, a fraction of the call cost of .any()
        op[absorbed], tot[absorbed] = 1.0, spec.dim  # stand-ins keep the quotients below finite
    op /= tot[:, None]
    JV = None if JW is None else (JW - op[:, :, None] * JW.sum(axis=1)[:, None, :]) / tot[:, None, None]
    return op, JW, JV, absorbed


def jacobian_W(z: State, spec: AlgebraSpec) -> np.ndarray:
    """Analytic Jacobian of the unnormalized operator at z: the transpose of L_z."""
    _admit(spec, z)
    return spec._left_rows(z.vector[None])[0].T


@functools.cache
def _simplex_tangent_basis(dim: int) -> np.ndarray:
    """Orthonormal basis (columns) of the zero-sum subspace of R^dim.

    Computed once per dimension; the cached array is read-only.
    """
    ones = np.ones((dim, 1)) / np.sqrt(dim)
    q, _ = np.linalg.qr(np.eye(dim) - ones @ ones.T)
    # drop the column closest to the normal direction
    keep = [j for j in range(dim) if abs(ones[:, 0] @ q[:, j]) < 0.5]
    return _frozen(q[:, keep[: dim - 1]])


def _tangent_rows(JV: np.ndarray) -> np.ndarray:
    """Stack of ambient V Jacobians (B, dim, dim) projected as T^T J T."""
    T = _simplex_tangent_basis(JV.shape[1])
    return T.T @ JV @ T


def jacobian_V(z: State, spec: AlgebraSpec) -> np.ndarray:
    """Jacobian of the normalized operator restricted to the simplex tangent space.

    The ambient Jacobian (I - V(z) 1^T) J_W(z) / omega(W(z)) is projected
    onto an orthonormal zero-sum basis T as T^T J T; the resulting
    (dim-1) x (dim-1) matrix has the spectrum that governs stability
    within the simplex.  Raises ShapeMismatch for a state of the wrong
    type, NotStochastic and AbsorbedToO where V is undefined.
    """
    _admit(spec, z, stochastic=True)
    _, _, JV, absorbed = _op_rows(z.vector[None], spec, "V", jacobians=True)
    if absorbed[0]:
        raise AbsorbedToO()
    return _tangent_rows(JV)[0]


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

    def contains(self, v: np.ndarray) -> bool:
        rel = v - self.base_point
        proj = rel - (rel @ self.direction) * self.direction
        return float(np.abs(proj).sum()) < DEDUP_TOL

    def to_dict(self) -> dict:
        return {
            "base_point": self.base_point.tolist(),
            "direction": self.direction.tolist(),
            "parameter_range_tested": list(self.parameter_range_tested),
        }


@dataclass
class FixedPointRecord:
    """A fixed point with its spectra and stability labels.

    ``diagnostics`` is set on the records of a numeric search.  ``method``
    is ``"eigen"`` for the exact W search (_exact_W), whose candidates are
    its non-zero eigen roots (none when only the origin is fixed), and
    ``"newton"`` for the multi-start search, whose candidates are its
    starts.  The counts: ``attempted`` candidates, ``converged`` (accepted
    roots before deduplication), ``singular`` (took at least one
    least-squares Newton step), and the failures ``nonfinite``,
    ``diverged``, ``rejected_residual`` and, for V, ``absorbed`` (omega(W)
    vanished, or the root has no female or no male mass).  Each candidate
    ends either converged or in exactly one failure; an eigen root whose
    residual is below RESIDUAL_TOL converges without a Newton step.
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


def _records(P: np.ndarray, spec: AlgebraSpec, operator: str) -> list[FixedPointRecord]:
    """The records of every row of P (B, dim), built in one pass.

    One _op_rows call gives the residuals and the J_W stack, one stacked
    eigvals its spectra.  The V spectra come from one projected stack over
    the eligible rows: for V every row; for W the rows of a stochastic
    algebra that are non-negative with positive mass and, scaled to unit
    sum, have female and male mass, taken at that scaled point (one more
    _op_rows call).  The products are row-wise, so a row's record has the
    bits make_record gives it alone.  Raises NotStochastic (V on a
    non-stochastic algebra) and AbsorbedToO where V is undefined.
    """
    _admit(spec, operator=operator, stochastic=operator == "V")
    n = spec.n
    P = _frozen(np.array(P, dtype=float).reshape(-1, spec.dim))  # the record points wrap its rows
    if not len(P):
        return []
    op, JW, JV, absorbed = _op_rows(P, spec, operator, jacobians=True, rowwise=True)
    residual = np.abs(op - P).sum(axis=1)
    w_eigs = np.linalg.eigvals(JW)
    if operator == "V":
        eligible = np.ones(len(P), dtype=bool)
    else:
        eligible = np.zeros(len(P), dtype=bool)
        Zn = P[eligible]
        if spec.is_stochastic():
            mass = P.sum(axis=-1)
            eligible = (P >= 0).all(axis=1) & (mass > 0)
            Zn = P[eligible] / mass[eligible, None]
            pos = Zn > 0
            sexes = pos[:, :n].any(axis=1) & pos[:, n:].any(axis=1)
            eligible[eligible] = sexes
            Zn = Zn[sexes]
        _, _, JV, absorbed = _op_rows(Zn, spec, "V", jacobians=True, rowwise=True)
    if np.count_nonzero(absorbed):
        raise AbsorbedToO()
    v_eigs = np.linalg.eigvals(_tangent_rows(JV))
    v_spectra = iter(zip(v_eigs, _classify_rows(v_eigs)))

    records = []
    for p, res, we, sw, has_v in zip(
        P, residual.tolist(), w_eigs, _classify_rows(w_eigs), eligible.tolist()
    ):
        rec = FixedPointRecord(Element._wrap(p, n), operator, res, we, stability_w=sw)
        if has_v:
            rec.v_eigenvalues, rec.stability_v = next(v_spectra)
        records.append(rec)
    return records


def make_record(z: State, spec: AlgebraSpec, operator: str = "W") -> FixedPointRecord:
    """Populate eigenvalues and stability labels for a fixed point.

    The residual is the L1 size of op(z) - z, where V divides W by
    W.sum(), the mass J_V divides by.  Both records carry the J_W
    spectrum and its label.  A V record carries the tangent-space V
    spectrum at z; a W record carries it at z scaled to unit sum, if the
    algebra is stochastic, z is non-negative with positive mass and the
    scaled point has female and male mass.  A one-row call of the pass the
    numeric search and the closed forms make over all their points.
    Raises ValueError for an operator other than "W" or "V".
    """
    _admit(spec, z, operator=operator)
    rec = _records(z.vector[None], spec, operator)[0]
    rec.point = z
    return rec


# per-start outcomes of the Newton search; 0 is success
_FAILURES = ("rejected_residual", "nonfinite", "diverged", "absorbed")
_REJECTED, _NONFINITE, _DIVERGED, _ABSORBED = range(1, len(_FAILURES) + 1)


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


def _snap(X: np.ndarray) -> np.ndarray:
    """X with every coordinate within ROOT_ZERO_TOL * max(1, |row|_inf) of zero set to 0.0."""
    scale = np.maximum(1.0, np.abs(X).max(axis=1, initial=0.0))
    return np.where(np.abs(X) <= ROOT_ZERO_TOL * scale[:, None], 0.0, X)


def _newton(starts: np.ndarray, spec: AlgebraSpec, operator: str):
    """Newton's method on op(z) - z from every row of ``starts`` at once.

    Each iteration steps all the starts still running, with one _op_rows
    call for op and the batch of Jacobians and one stacked solve.  A start
    stops when its L1 step falls below NEWTON_STEP_TOL or after
    NEWTON_MAX_ITER steps, and fails
    on a non-finite step or state, a coordinate beyond NEWTON_DIVERGENCE,
    or (V) a vanishing omega(W).  The V iterate is rescaled to unit sum
    after each step.  A stopped start is accepted if its residual is below
    RESIDUAL_TOL; accepted roots have their near-zero coordinates snapped
    to 0.0, and a V root without female or male mass is rejected as
    absorbed.

    Returns the final iterates (B, dim), the per-start outcome codes (0 for
    an accepted root, else 1 + index into _FAILURES) and the mask of
    starts that took a least-squares step.
    """
    X = np.array(starts, dtype=float)
    fate = np.zeros(len(X), dtype=int)
    singular = np.zeros(len(X), dtype=bool)
    rows = np.arange(len(X))
    eye = np.eye(spec.dim)
    for _ in range(NEWTON_MAX_ITER):
        if not rows.size:
            break
        Z = X[rows]
        opZ, _, J, absorbed = _op_rows(Z, spec, operator, jacobians=True)
        J -= eye
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
    opZ, _, _, absorbed = _op_rows(Z, spec, operator)
    fate[done[absorbed]] = _ABSORBED
    fate[done[~absorbed & ~(np.abs(opZ - Z).sum(axis=1) < RESIDUAL_TOL)]] = _REJECTED
    ok = done[fate[done] == 0]
    X[ok] = _snap(X[ok])
    if operator == "V":
        n = spec.n
        female, male = np.abs(X[ok, :n].sum(axis=1)), np.abs(X[ok, n:].sum(axis=1))
        fate[ok[(female < DEDUP_TOL) | (male < DEDUP_TOL)]] = _ABSORBED
    return X, fate, singular


def _detect_family(v: np.ndarray, spec: AlgebraSpec, operator: str) -> FamilyDescriptor | None:
    """The line of fixed points through the root v, if there is one.

    A near-zero singular value of J - I gives the candidate direction (for
    V, of the tangent-space Jacobian, since V keeps the unit sum); the line
    counts as a family when the probes at both ends of
    FamilyDescriptor.parameter_range_tested along it are fixed too.  Raises
    AbsorbedToO where V is undefined at the root or at a probe.
    """
    _, _, J, absorbed = _op_rows(v[None], spec, operator, jacobians=True)
    if absorbed[0]:
        raise AbsorbedToO()
    if operator == "W":
        T = np.eye(spec.dim)
        J = J[0] - T
    else:
        T = _simplex_tangent_basis(spec.dim)
        J = _tangent_rows(J)[0] - np.eye(spec.dim - 1)
    _, svals, vt = np.linalg.svd(J)
    if svals[-1] >= FAMILY_SINGULAR_TOL:
        return None
    direction = T @ vt[-1]
    probes = v + np.array(FamilyDescriptor.parameter_range_tested)[:, None] * direction
    op, _, _, absorbed = _op_rows(probes, spec, operator)
    for gone, res in zip(absorbed.tolist(), np.abs(op - probes).sum(axis=1).tolist()):
        if gone:
            raise AbsorbedToO()
        if res >= RESIDUAL_TOL:
            return None
    return FamilyDescriptor(base_point=v.copy(), direction=direction)


def _eigen_roots(spec: AlgebraSpec) -> np.ndarray | None:
    """Every W fixed point of a type-(n, 1) or (1, nu) algebra, origin first,
    from one eigendecomposition; None when two eigenvalues repeat.

    For nu = 1, W(x, y) = (y A x, y q.x) with A[k, i] = gamma[i, 0, k] and
    q_i = gamma~[i, 0, 0], so the non-zero fixed points are (v / q.v, 1 / lam)
    for the real eigenpairs (lam, v) of A, here in increasing 1 / lam.  As
    in scenarios.type21_fixed_points, a pair with |lam| below PARAM_TOL, or
    |q.v| below PARAM_TOL |v|_1, gives no point.  Distinct eigenvalues give
    at most n + 1 points with the origin, the 2-homogeneous Bezout number,
    so the set is complete.  Eigenvalues within EIGEN_REPEAT_TOL may carry a
    family (A = lam I) or a Jordan block, which the Newton search and
    _detect_family own.  Type (1, nu) runs on opposite(spec) and maps the
    roots back by swap_map.  Near-zero coordinates are snapped as Newton's
    are, so a triangular A keeps its structural zeros.
    """
    if spec.nu != 1:
        roots = _eigen_roots(opposite(spec))
        return None if roots is None else roots @ swap_map(spec)
    A = spec.gamma[:, 0, :].T
    lam, vecs = np.linalg.eig(A)
    gaps = np.abs(lam[:, None] - lam)
    np.fill_diagonal(gaps, np.inf)
    if gaps.min() < EIGEN_REPEAT_TOL * max(1.0, np.abs(A).sum(axis=0).max()):
        return None
    real = lam.imag == 0  # LAPACK returns a real eigenvalue with imaginary part exactly 0
    lam, vecs = lam.real[real], vecs.real[:, real]
    qv = spec.gamma_tilde[:, 0, 0] @ vecs
    ok = (np.abs(lam) >= PARAM_TOL) & (np.abs(qv) >= PARAM_TOL * np.abs(vecs).sum(axis=0))
    y = 1.0 / lam[ok]
    roots = np.column_stack([(vecs[:, ok] / qv[ok]).T, y])[np.argsort(y, kind="stable")]
    return _snap(np.vstack([np.zeros((1, spec.dim)), roots]))


def _fixed_support(spec: AlgebraSpec) -> np.ndarray:
    """The fixed support S of spec: the mask of the coordinates a W fixed point can hold.

    S is the largest set of coordinates each of which some product e_i m_p
    with i and p in S produces (a kernel entry != 0, as in
    dynamics.support_orbit).  A fixed point z has z_k = W(z)_k != 0 only if
    some x_i y_p K[i nu + p, k] != 0, so its support is such a set and lies
    in S.  No pair in S produces a coordinate off S (S would not be the
    largest), so on the points that vanish off S, W is the W of the algebra
    restricted to S.  Found by removing the coordinates the pairs left do
    not produce until none goes.  A non-empty S holds both sexes.
    """
    n = spec.n
    made = spec.kernel != 0.0  # row i nu + p: what e_i m_p produces
    S = made.any(axis=0)
    size, last = np.count_nonzero(S), spec.dim
    while size < last:
        S &= made[(S[:n, None] & S[None, n:]).ravel()].any(axis=0)
        size, last = np.count_nonzero(S), size
    return S


def _restrict(spec: AlgebraSpec, S: np.ndarray) -> AlgebraSpec:
    """The algebra of the products e_i m_p with i and p in S, on the coordinates in S."""
    n = spec.n
    K = spec.kernel.reshape(n, spec.nu, spec.dim)[S[:n]][:, S[n:]][:, :, S]
    m = int(S[:n].sum())
    return AlgebraSpec(m, int(S[n:].sum()), K[:, :, :m], K[:, :, m:])


def _exact_W(spec: AlgebraSpec):
    """The exact W search of a finite algebra, or None where it does not apply.

    The roots vanish off the fixed support S (_fixed_support) and are the
    roots of the algebra restricted to S, padded with zeros.  An empty S
    (no female or no male left) gives the origin alone.  A restriction of
    type (n, 1) or (1, nu) gives _eigen_roots, each root whose residual is
    not below RESIDUAL_TOL polished by Newton on the restriction and kept
    only if accepted.  None when the restriction has n, nu >= 2 or its
    eigenvalues repeat.  When S is every coordinate, no restriction is built.

    Returns the roots (origin first), and the outcome codes and singular
    flags of the non-zero eigen roots, the candidates.
    """
    S = _fixed_support(spec)
    if not S.any():
        return np.zeros((1, spec.dim)), np.zeros(0, dtype=int), np.zeros(0, dtype=bool)
    sub = spec if S.all() else _restrict(spec, S)
    if 1 not in (sub.n, sub.nu):
        return None
    roots = _eigen_roots(sub)
    if roots is None:
        return None
    op = _op_rows(roots, sub, "W", rowwise=True)[0]
    fate = np.zeros(len(roots), dtype=int)
    singular = np.zeros(len(roots), dtype=bool)
    off = np.flatnonzero(~(np.abs(op - roots).sum(axis=1) < RESIDUAL_TOL))
    if off.size:
        roots[off], fate[off], singular[off] = _newton(roots[off], sub, "W")
    if sub is not spec:
        padded = np.zeros((len(roots), spec.dim))
        padded[:, S] = roots
        roots = padded
    return roots[fate == 0], fate[1:], singular[1:]  # the origin is no candidate


def solve_fixed_points_numeric(
    spec: AlgebraSpec,
    operator: str = "W",
    grid: int = 3,
    seed: int = 0,
    random_starts: int = 8,
) -> list[FixedPointRecord]:
    """Fixed points of op, exact for W where the fixed support leaves one sex
    with one type, else by multi-start Newton.

    For W on a finite algebra whose fixed support S is empty, or restricts
    it to a type (n, 1) or (1, nu) with distinct transfer-matrix
    eigenvalues, the set is exact (_exact_W): the origin, then one root per
    real eigenpair of the restriction, padded with zeros off S.  The start
    arguments are not used there, and the records are those of the full
    algebra.

    Otherwise Newton runs from a grid over [0, 5]^dim (or the simplex for
    the normalized operator) plus seeded random points.  Roots are
    deduplicated by L1 distance in start order; points lying on a detected
    one-parameter family collapse into a single family record.  The zero
    state is always included for the unnormalized operator.

    The V search returns no record, and runs no start, where S is empty.
    Every record carries the search's diagnostics.  The V search raises
    NotStochastic on an algebra that is not stochastic; an operator other
    than "W" or "V" raises ValueError.
    """
    _admit(spec, operator=operator, stochastic=operator == "V")
    if operator == "V" and not _fixed_support(spec).any():
        return []  # V(z) = z makes W(z) a non-zero multiple of z, so z vanishes off S too
    exact = _exact_W(spec) if operator == "W" and spec.is_finite() else None
    families: list[FamilyDescriptor] = []
    if exact is not None:
        method = "eigen"
        roots, fate, singular = exact
    else:
        method = "newton"
        starts = _starts(spec, operator, grid, seed, random_starts)
        found, fate, singular = _newton(starts, spec, operator)
        roots, families = _deduplicate(found[fate == 0], spec, operator)

    counts = np.bincount(fate, minlength=len(_FAILURES) + 1)
    diagnostics = {
        "method": method,
        "attempted": len(fate),
        "converged": int(counts[0]),
        "singular": int(singular.sum()),
        **{key: int(c) for key, c in zip(_FAILURES, counts[1:])},
    }
    if operator == "W":
        del diagnostics["absorbed"]

    records = _records(np.vstack([roots, *(f.base_point for f in families)]), spec, operator)
    for rec, fam in zip(records[len(roots):], families):
        rec.family = fam
    for rec in records:
        rec.diagnostics = dict(diagnostics)
    return records


def _starts(spec: AlgebraSpec, operator: str, grid: int, seed: int, random_starts: int) -> np.ndarray:
    """The Newton search's starts: for W the origin, the grid over [0, 5]^dim
    and seeded random points; for V seeded Dirichlet points on the simplex."""
    rng = np.random.default_rng(seed)
    dim = spec.dim
    if operator == "V":
        # one draw for all: the same gammas in the same order as a draw per start
        return rng.dirichlet(np.ones(dim), size=(grid**2 if grid > 1 else 0) + random_starts)
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
    return np.vstack(parts)


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


def closed_form_records(points: list, line: tuple | None, spec: AlgebraSpec) -> list[FixedPointRecord]:
    """W records of spec at closed-form points in one pass; a line (base,
    direction) of fixed points goes on the last record as its family."""
    records = _records(points, spec, "W")
    if line is not None:
        records[-1].family = FamilyDescriptor(*line)
    return records


def closed_form_fixed_points_type11(gamma: float) -> list[FixedPointRecord]:
    """Fixed points (0, 0) and (1/(1-gamma), 1/gamma) of the type-(1,1) family."""
    return closed_form_records(*type11_fixed_points(gamma), type11_spec(gamma))


def closed_form_fixed_points_type21(
    g1: float, g2: float, d1: float, d2: float
) -> list[FixedPointRecord]:
    """Every W fixed point of the type-(2,1) family, origin first.

    W(x, y) = (y A x, y (g, d) . x) with the female transfer matrix
    A = [[g1, d1], [g2, d2]] and male shares g = 1 - g1 - g2, d = 1 - d1 - d2,
    so a non-zero fixed point is (v / Q, 1 / lam) for an eigenpair (lam, v)
    of A with lam != 0 and Q = (g, d) . v = (1 - lam)(v1 + v2) != 0.  Each
    eigenvalue gives at most one point; when A = lam I the points form a
    line, whose family goes on the last record.  The non-zero points come
    in increasing y.  Raises DegenerateParameter for a negative parameter
    or a male share below zero.
    """
    return closed_form_records(*type21_fixed_points(g1, g2, d1, d2), type21_spec(g1, g2, d1, d2))


def closed_form_fixed_points_hemophilia(mu: float, eta: float) -> list[FixedPointRecord]:
    """Fixed points of the hemophilia family when mu = 1 or eta = 1."""
    return closed_form_records(*hemophilia_fixed_points(mu, eta), hemophilia_spec(mu, eta))


# ---------------------------------------------------------------------------
# Correspondences and stability transfer
# ---------------------------------------------------------------------------


def idempotent_correspondence(fp: FixedPointRecord, spec: AlgebraSpec) -> Element:
    """Half of a fixed point of the unnormalized operator squares to itself."""
    half = 0.5 * fp.point
    defect = float(np.abs((multiply(half, half, spec) - half).vector).sum())
    # the half of a root has defect residual / 2, so every accepted root passes
    if defect > RESIDUAL_TOL:
        raise NotIdempotent(f"half of the supplied point fails to square to itself (defect {defect:.3e})")
    return half


def normalize_fixed_point(fp: FixedPointRecord) -> State:
    """Scale a non-negative fixed point to unit coordinate sum."""
    if np.any(fp.point.vector < 0):
        raise NotNormalizable("point has a negative component")
    total = omega(fp.point)
    if total == 0.0:
        raise NotNormalizable("point has zero coordinate sum")
    return Element.from_vector(fp.point.vector / total, len(fp.point.x))


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
    failure is not an inconsistency.  Both spectra and labels are read
    from fp, a record of spec as make_record, the closed forms and the
    searches build it; nothing is recomputed.  Raises NotNormalizable for a
    point with a negative coordinate or zero sum, ValueError for a record
    without spectra, NotStochastic and AbsorbedToO where V is undefined at
    the normalized point.
    """
    normalize_fixed_point(fp)
    if fp.w_eigenvalues is None:
        raise ValueError("the record carries no spectra; build it with make_record")
    _admit(spec, stochastic=True)
    if fp.v_eigenvalues is None:
        raise AbsorbedToO()
    w_eigs, v_eigs = fp.w_eigenvalues, fp.v_eigenvalues
    return TransferReport(
        stability_w=fp.stability_w,
        stability_v=fp.stability_v,
        consistent=not (fp.stability_w == STABLE and fp.stability_v != STABLE),
        w_spectral_radius=float(np.abs(w_eigs).max()),
        v_spectral_radius=float(np.abs(v_eigs).max()) if v_eigs.size else 0.0,
    )
