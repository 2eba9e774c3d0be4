"""Fixed points of the evolution operators and their stability.

Numeric side: multi-start damped Newton on op(z) - z with the analytic
Jacobian, deduplication, and detection of one-parameter families through
null directions of the linearization.  Closed-form side: the known fixed
points of the three scenario families.  Stability is read off Jacobian
spectra; for the normalized operator the Jacobian is restricted to the
tangent space of the simplex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraSpec, Element, State, multiply, omega
from .dynamics import apply_V, apply_W
from .errors import (
    DegenerateParameter,
    NotIdempotent,
    NotNormalizable,
    UncoveredCase,
)
from .scenarios import hemophilia_spec, type11_spec, type21_spec

RESIDUAL_TOL = 1e-10
DEDUP_TOL = 1e-6
CASE_TOL = 1e-12
MARGINAL_BAND = 1e-9

STABLE = "exponentially_stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"


def jacobian_W(z: State, spec: AlgebraSpec) -> np.ndarray:
    """Analytic Jacobian of the unnormalized operator at z."""
    n, nu, dim = spec.n, spec.nu, spec.dim
    # W(z) = sum_ip x_i y_p K[i, p, :]; each block contracts K with one factor
    d_dx = z.y @ spec.kernel.reshape(n, nu, dim)
    d_dy = (z.x @ spec.kernel.reshape(n, nu * dim)).reshape(nu, dim)
    return np.concatenate([d_dx, d_dy]).T


def _simplex_tangent_basis(dim: int) -> np.ndarray:
    """Orthonormal basis (columns) of the zero-sum subspace of R^dim."""
    ones = np.ones((dim, 1)) / np.sqrt(dim)
    q, _ = np.linalg.qr(np.eye(dim) - ones @ ones.T)
    # drop the column closest to the normal direction
    keep = [j for j in range(dim) if abs(ones[:, 0] @ q[:, j]) < 0.5]
    return q[:, keep[: dim - 1]]


def jacobian_V(z: State, spec: AlgebraSpec, step: float = 1e-6) -> np.ndarray:
    """Jacobian of the normalized operator restricted to the simplex tangent space.

    Computed by central finite differences along an orthonormal zero-sum
    basis; returns a (dim-1) x (dim-1) matrix whose spectrum governs
    stability within the simplex.
    """
    dim = spec.dim
    T = _simplex_tangent_basis(dim)
    cols = []
    for b in range(T.shape[1]):
        dv = T[:, b] * step
        zp = Element.from_vector(z.vector + dv, spec.n)
        zm = Element.from_vector(z.vector - dv, spec.n)
        diff = (apply_V(zp, spec).vector - apply_V(zm, spec).vector) / (2 * step)
        cols.append(T.T @ diff)
    return np.column_stack(cols)


def classify_spectrum(eigenvalues: np.ndarray) -> str:
    rho = float(np.abs(eigenvalues).max()) if eigenvalues.size else 0.0
    if abs(rho - 1.0) <= MARGINAL_BAND:
        return MARGINAL
    return STABLE if rho < 1.0 else UNSTABLE


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
    point: State
    operator: str
    residual: float
    w_eigenvalues: np.ndarray | None = None
    v_eigenvalues: np.ndarray | None = None
    stability_w: str | None = None
    stability_v: str | None = None
    family: FamilyDescriptor | None = None

    def to_dict(self) -> dict:
        def eigs(e):
            return None if e is None else [[float(v.real), float(v.imag)] for v in e]

        return {
            "point": self.point.vector.tolist(),
            "operator": self.operator,
            "residual": self.residual,
            "w_eigenvalues": eigs(self.w_eigenvalues),
            "v_eigenvalues": eigs(self.v_eigenvalues),
            "stability_w": self.stability_w,
            "stability_v": self.stability_v,
            "family": self.family.to_dict() if self.family else None,
        }


def _residual(z: State, spec: AlgebraSpec, operator: str) -> float:
    op = apply_W if operator == "W" else apply_V
    return float(np.abs(op(z, spec).vector - z.vector).sum())


def make_record(z: State, spec: AlgebraSpec, operator: str = "W") -> FixedPointRecord:
    """Populate eigenvalues and stability labels for a fixed point."""
    rec = FixedPointRecord(z, operator, _residual(z, spec, operator))
    if operator == "W":
        rec.w_eigenvalues = np.linalg.eigvals(jacobian_W(z, spec))
        rec.stability_w = classify_spectrum(rec.w_eigenvalues)
        if spec.is_stochastic() and np.all(z.vector >= 0) and omega(z) > 0:
            zn = Element(z.x / omega(z), z.y / omega(z))
            if np.any(zn.x > 0) and np.any(zn.y > 0):
                rec.v_eigenvalues = np.linalg.eigvals(jacobian_V(zn, spec))
                rec.stability_v = classify_spectrum(rec.v_eigenvalues)
    else:
        rec.v_eigenvalues = np.linalg.eigvals(jacobian_V(z, spec))
        rec.stability_v = classify_spectrum(rec.v_eigenvalues)
        rec.w_eigenvalues = np.linalg.eigvals(jacobian_W(z, spec))
        rec.stability_w = classify_spectrum(rec.w_eigenvalues)
    return rec


def _newton(z0v: np.ndarray, spec: AlgebraSpec, operator: str) -> np.ndarray | None:
    op = apply_W if operator == "W" else apply_V
    v = z0v.copy()
    dim = spec.dim
    for _ in range(100):
        z = Element.from_vector(v, spec.n)
        try:
            F = op(z, spec).vector - v
        except Exception:
            return None
        J = jacobian_W(z, spec) - np.eye(dim) if operator == "W" else None
        if operator == "V":
            # ambient finite-difference Jacobian of V; cheap at desk scale
            J = np.zeros((dim, dim))
            h = 1e-7
            try:
                for c in range(dim):
                    e = np.zeros(dim)
                    e[c] = h
                    J[:, c] = (
                        apply_V(Element.from_vector(v + e, spec.n), spec).vector
                        - apply_V(Element.from_vector(v - e, spec.n), spec).vector
                    ) / (2 * h)
            except Exception:
                return None
            J -= np.eye(dim)
        try:
            s = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            s = np.linalg.solve(J.T @ J + 1e-10 * np.eye(dim), -J.T @ F)
        if not np.all(np.isfinite(s)):
            return None
        v = v + s
        if not np.all(np.isfinite(v)) or np.abs(v).max() > 1e8:
            return None
        if operator == "V":
            tot = v.sum()
            if abs(tot) > 1e-12:
                v = v / tot
        if float(np.abs(s).sum()) < 1e-13:
            break
    z = Element.from_vector(v, spec.n)
    try:
        if _residual(z, spec, operator) < RESIDUAL_TOL:
            return v
    except Exception:
        return None
    return None


def _detect_family(v: np.ndarray, spec: AlgebraSpec, operator: str) -> FamilyDescriptor | None:
    z = Element.from_vector(v, spec.n)
    if operator == "W":
        J = jacobian_W(z, spec) - np.eye(spec.dim)
    else:
        return None  # families are a phenomenon of the unnormalized operator here
    _, svals, vt = np.linalg.svd(J)
    if svals[-1] >= 1e-8:
        return None
    direction = vt[-1]
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
    distance; points lying on a detected one-parameter family collapse
    into a single family record.  The zero state is always included for
    the unnormalized operator.
    """
    rng = np.random.default_rng(seed)
    dim = spec.dim
    starts: list[np.ndarray] = []
    if operator == "W":
        starts.append(np.zeros(dim))
        if grid > 1:
            axes = np.linspace(0.0, 5.0, grid)
            mesh = np.meshgrid(*([axes] * dim), indexing="ij")
            starts.extend(np.stack([m.ravel() for m in mesh], axis=1))
        # half the random starts stay near the unit box, the rest sample a
        # wide signed range so distant or partly negative roots are reachable
        near = random_starts - random_starts // 2
        starts.extend(rng.uniform(0.0, 5.0, size=(near, dim)))
        starts.extend(rng.uniform(-10.0, 40.0, size=(random_starts // 2, dim)))
    else:
        if grid > 1:
            for _ in range(grid ** 2):
                p = rng.dirichlet(np.ones(dim))
                starts.append(p)
        for _ in range(random_starts):
            starts.append(rng.dirichlet(np.ones(dim)))

    roots: list[np.ndarray] = []
    families: list[FamilyDescriptor] = []
    diagnostics = {"attempted": 0, "converged": 0}
    if operator == "W":
        roots.append(np.zeros(dim))

    for s0 in starts:
        diagnostics["attempted"] += 1
        v = _newton(np.asarray(s0, dtype=float), spec, operator)
        if v is None:
            continue
        diagnostics["converged"] += 1
        if any(float(np.abs(v - r).sum()) < DEDUP_TOL for r in roots):
            continue
        if any(f.contains(v) for f in families):
            continue
        fam = _detect_family(v, spec, operator)
        if fam is not None:
            # absorb previously found isolated points that lie on the family
            roots = [
                r for r in roots if not (fam.contains(r) and np.abs(r).sum() > DEDUP_TOL)
            ]
            families.append(fam)
        else:
            roots.append(v)

    records = [make_record(Element.from_vector(r, spec.n), spec, operator) for r in roots]
    for fam in families:
        rec = make_record(Element.from_vector(fam.base_point, spec.n), spec, operator)
        rec.family = fam
        records.append(rec)
    for rec in records:
        rec.diagnostics = dict(diagnostics)
    return records


# ---------------------------------------------------------------------------
# Closed forms for the scenario families
# ---------------------------------------------------------------------------


def _checked_record(vec, spec: AlgebraSpec, family: FamilyDescriptor | None = None):
    rec = make_record(Element.from_vector(np.asarray(vec, dtype=float), spec.n), spec, "W")
    rec.family = family
    return rec


def closed_form_fixed_points_type11(gamma: float) -> list[FixedPointRecord]:
    """Fixed points (0, 0) and (1/(1-gamma), 1/gamma) of the type-(1,1) family."""
    if abs(gamma) < CASE_TOL or abs(gamma - 1.0) < CASE_TOL:
        raise DegenerateParameter("only the origin is fixed when gamma is 0 or 1")
    spec = type11_spec(gamma)
    return [
        _checked_record([0.0, 0.0], spec),
        _checked_record([1.0 / (1.0 - gamma), 1.0 / gamma], spec),
    ]


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
    for name, v in (("g1", g1), ("g2", g2), ("d1", d1), ("d2", d2)):
        if v < 0:
            raise DegenerateParameter(f"{name} must be non-negative")
    g = 1.0 - g1 - g2
    d = 1.0 - d1 - d2
    if g < -CASE_TOL or d < -CASE_TOL:
        raise DegenerateParameter("male shares 1-g1-g2 and 1-d1-d2 must be non-negative")
    spec = type21_spec(g1, g2, d1, d2)
    records = [_checked_record([0.0, 0.0, 0.0], spec)]
    D = g1 * d2 - g2 * d1

    def near(a, b=0.0):
        return abs(a - b) < CASE_TOL

    if near(D):
        if near(g1 + d2) or near(g1 + d2, 1.0):
            return records
        y = 1.0 / (g1 + d2)
        if not near(g1) and not near(g1, 1.0) and near(d2) and near(g2):
            records.append(_checked_record([1.0 / (1.0 - g1), 0.0, 1.0 / g1], spec))
        elif near(g1) and not near(d2) and not near(d2, 1.0) and near(d1):
            records.append(_checked_record([0.0, 1.0 / (1.0 - d2), 1.0 / d2], spec))
        elif (
            not near(g1)
            and not near(d2)
            and not near(g1 + d2, 1.0)
            and not near(g2)
            and not near(d1)
        ):
            den = (g1 + g2) * (1.0 - g1 - d2)
            records.append(_checked_record([g1 / den, g2 / den, y], spec))
        return records

    # D != 0: roots of the male-coordinate quadratic
    if near(d1) and near(g2):
        if near(g1, d2):
            if near(g1, 1.0):
                raise DegenerateParameter("family requires g1 = d2 different from 1")
            base = np.array([0.5 / (1.0 - g1), 0.5 / (1.0 - g1), 1.0 / g1])
            direction = np.array([1.0, -1.0, 0.0])
            fam = FamilyDescriptor(base_point=base, direction=direction / np.linalg.norm(direction))
            records.append(_checked_record(base, spec, family=fam))
        else:
            if not near(g1, 1.0):
                records.append(_checked_record([1.0 / (1.0 - g1), 0.0, 1.0 / g1], spec))
            if not near(d2, 1.0):
                records.append(_checked_record([0.0, 1.0 / (1.0 - d2), 1.0 / d2], spec))
        return records

    if near(d1) and not near(g2):
        if near(g1, d2):
            if near(g1, 1.0):
                raise DegenerateParameter("point requires g1 different from 1")
            records.append(_checked_record([0.0, 1.0 / (1.0 - g1), 1.0 / g1], spec))
        else:
            den = (1.0 - g1) * (g1 + g2 - d2)
            if not near(g1, 1.0) and not near(g1 + g2 - d2):
                records.append(
                    _checked_record([(g1 - d2) / den, g2 / den, 1.0 / g1], spec)
                )
            if not near(d2, 1.0):
                records.append(_checked_record([0.0, 1.0 / (1.0 - d2), 1.0 / d2], spec))
        return records

    if not near(d1) and near(g2):
        if near(g1, d2):
            if near(g1, 1.0):
                raise DegenerateParameter("point requires g1 different from 1")
            records.append(_checked_record([1.0 / (1.0 - g1), 0.0, 1.0 / g1], spec))
        else:
            if not near(g1, 1.0):
                records.append(_checked_record([1.0 / (1.0 - g1), 0.0, 1.0 / g1], spec))
            den = (1.0 - d2) * (d1 + d2 - g1)
            if not near(d2, 1.0) and not near(d1 + d2 - g1):
                records.append(
                    _checked_record([d1 / den, (d2 - g1) / den, 1.0 / d2], spec)
                )
        return records

    # both g2 and d1 nonzero: two real roots since the discriminant is positive
    roots = np.roots([D, -(g1 + d2), 1.0])
    for y in sorted(float(r.real) for r in roots if abs(r.imag) < CASE_TOL):
        Q = (g * d1 - d * g1) * y + d
        if near(Q):
            raise DegenerateParameter("fixed-point denominator vanishes at a quadratic root")
        records.append(
            _checked_record([d1 * y / Q, (1.0 - g1 * y) / Q, y], spec)
        )
    return records


def closed_form_fixed_points_hemophilia(mu: float, eta: float) -> list[FixedPointRecord]:
    """Fixed points of the hemophilia family when mu = 1 or eta = 1."""
    if not (0.0 <= mu <= 1.0 and 0.0 <= eta <= 1.0):
        raise DegenerateParameter("mu and eta must lie in [0, 1]")
    mu_is_one = abs(mu - 1.0) < CASE_TOL
    eta_is_one = abs(eta - 1.0) < CASE_TOL
    if not mu_is_one and not eta_is_one:
        raise UncoveredCase("no closed form for mu < 1 and eta < 1; use the numeric solver")
    spec = hemophilia_spec(mu, eta)
    records = [_checked_record([0.0, 0.0, 0.0, 0.0], spec)]
    if not mu_is_one and eta_is_one:
        c = 3.0 - mu
        records.append(
            _checked_record(
                [0.0, c / 2.0, c / 2.0, (1.0 + mu) * c / (2.0 * (1.0 - mu))], spec
            )
        )
    return records


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
