"""Named genetic scenarios and their closed-form dynamics.

``SCENARIOS`` is the one table of scenarios.  Each entry maps a name to
its parameter names, a description, its algebra builder, its closed-form
W fixed points and its limit predictor.  The fixed-point formulas
(type11_fixed_points, type21_fixed_points, hemophilia_fixed_points) live
here and return plain points; fixed_points makes the records of them.  One
verifier, verify_prediction, checks every prediction against iteration.

* lr_lethal: one female and one male type, male offspring share gamma.
* lr_mutation: same algebra with gamma derived from a mutation rate.
* recessive_lethal: two female types, one male type (lethal male allele).
* hemophilia: two female and two male types with viability mu and
  fertility eta of affected males.
* x_inactivation: role-swapped version of recessive_lethal, served by
  its closed forms carried through phi = swap_map(type21_spec(...)).

Beyond construction, this module evaluates the closed forms known for
these families: fixed points, trajectories, limit predictions and the
Lyapunov bound of the hemophilia model.  The structural zeros the predictions turn
on (the E-set of the heterozygous female coordinate, male extinction, the
exact hemophilia extinction step) are all read from dynamics.support_orbit,
so they are exact; a state with a negative coordinate, whose sums could
cancel, is rejected with ValueError.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, Element, State, _admit, omega, opposite, swap_map
from .dynamics import _finite_start, _orbit, apply_W, iterate, support_orbit
from .errors import (
    DegenerateDenominator,
    DegenerateParameter,
    InvalidParameter,
    MaleExtinction,
    ShapeMismatch,
    UncoveredCase,
)

PARAM_TOL = 1e-12
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class Scenario:
    name: str
    params: dict


def _check_unit_interval(name: str, v: float) -> float:
    v = float(v)
    if not 0.0 <= v <= 1.0:
        raise InvalidParameter(f"{name} = {v} outside [0, 1]")
    return v


def type11_spec(gamma: float) -> AlgebraSpec:
    """Type (1,1): e * m = gamma e + (1 - gamma) m."""
    g = np.array([[[gamma]]])
    gt = np.array([[[1.0 - gamma]]])
    return AlgebraSpec(1, 1, g, gt)


def _male_shares(g1: float, g2: float, d1: float, d2: float) -> tuple[float, float]:
    """1 - g1 - g2 and 1 - d1 - d2, with a rounding residue in [-PARAM_TOL, 0) read as 0.0."""
    return tuple(0.0 if -PARAM_TOL <= m < 0.0 else m for m in (1.0 - g1 - g2, 1.0 - d1 - d2))


def type21_spec(g1: float, g2: float, d1: float, d2: float) -> AlgebraSpec:
    """Type (2,1): e1 m = g1 e1 + g2 e2 + (1-g1-g2) m, e2 m likewise with d's."""
    g, d = _male_shares(g1, g2, d1, d2)
    gamma = np.array([[[g1, g2]], [[d1, d2]]])
    gamma_tilde = np.array([[[g]], [[d]]])
    return AlgebraSpec(2, 1, gamma, gamma_tilde)


def _type21_eigenpairs(g1: float, g2: float, d1: float, d2: float) -> list:
    """Eigenvalues of the female transfer matrix A = [[g1, d1], [g2, d2]] with their eigenvectors.

    Returns (lam, (c1, c2)) pairs, smaller lam first, where c1 = (lam - d2, g2)
    and c2 = (d1, lam - g1) are the columns of A - lam' I, lam' the other
    eigenvalue.  By Cayley-Hamilton A - lam' I = -adj(A - lam I), so each
    non-zero column is a lam-eigenvector; both vanish only when A = lam I.
    Non-negative entries give real eigenvalues with lam2 >= |lam1|.  The
    larger root alone is returned when the roots differ by less than
    PARAM_TOL or its columns are all below PARAM_TOL (A = lam I).  lam - d2
    and lam - g1 are formed from g1 - d2 and the root, not from lam, so a
    triangular A gives them as exact zeros.
    """
    root = float(np.sqrt((g1 - d2) ** 2 + 4.0 * g2 * d1))
    pairs = [
        ((g1 + d2 + s * root) / 2.0, (((g1 - d2 + s * root) / 2.0, g2), (d1, (d2 - g1 + s * root) / 2.0)))
        for s in (-1.0, 1.0)
    ]
    c1, c2 = pairs[1][1]
    if root < PARAM_TOL or max(map(abs, c1 + c2)) < PARAM_TOL:
        return pairs[1:]
    return pairs


def type21_fixed_points(g1: float, g2: float, d1: float, d2: float) -> tuple:
    """The type-(2,1) W fixed points, origin first, and the line (base, direction)
    through the last one if they form a line, else None (the formula is given
    at fixed_points.closed_form_fixed_points_type21)."""
    for name, v in (("g1", g1), ("g2", g2), ("d1", d1), ("d2", d2)):
        if v < 0:
            raise DegenerateParameter(f"{name} must be non-negative")
    g, d = _male_shares(g1, g2, d1, d2)
    if g < 0.0 or d < 0.0:
        raise DegenerateParameter("male shares 1-g1-g2 and 1-d1-d2 must be non-negative")
    points, line = [], None
    for lam, columns in _type21_eigenpairs(g1, g2, d1, d2):
        # A = lam I when both columns vanish: every (v1, v2) is an eigenvector
        on_line = max(abs(c) for col in columns for c in col) < PARAM_TOL
        v = (1.0, 1.0) if on_line else max(columns, key=lambda c: abs(c[0]) + abs(c[1]))
        q = g * v[0] + d * v[1]
        if abs(lam) < PARAM_TOL or abs(q) < PARAM_TOL * (abs(v[0]) + abs(v[1])):
            continue
        points.append([v[0] / q + 0.0, v[1] / q + 0.0, 1.0 / lam])  # + 0.0 turns -0.0 into 0.0
        if on_line:
            direction = np.array([1.0, -1.0, 0.0])
            line = (np.array(points[-1]), direction / np.linalg.norm(direction))
    return [[0.0, 0.0, 0.0]] + sorted(points, key=lambda p: p[2]), line


def hemophilia_spec(mu: float, eta: float) -> AlgebraSpec:
    """Type (2,2) algebra with male viability mu and fertility eta.

    Basis: x1 healthy female, x2 carrier female, y1 healthy male,
    y2 affected male.  Rows are Punnett offspring distributions among
    the surviving genotypes.
    """
    a = 2.0 - mu * eta
    b = 2.0 - mu
    q = 4.0 - (1.0 + mu) * eta
    c = 3.0 - mu
    gamma = np.array(
        [
            [
                [(1 - mu) * (1 - eta) / a, (mu + eta - 2 * mu * eta) / a],
                [0.0, (1 - mu) / b],
            ],
            [
                [(1 - mu) * (1 - eta) / q, (1 + mu - 2 * mu * eta) / q],
                [0.0, (1 - mu) / c],
            ],
        ]
    )
    gamma_tilde = np.array(
        [
            [
                [(1 - mu) / a, mu / a],
                [(1 - mu) / b, mu / b],
            ],
            [
                [(1 - mu) / q, (1 + mu) / q],
                [(1 - mu) / c, (1 + mu) / c],
            ],
        ]
    )
    return AlgebraSpec(2, 2, gamma, gamma_tilde)


def _type21_params(s: Scenario) -> tuple[float, float, float, float]:
    p = s.params
    g1, g2 = float(p["gamma1"]), float(p["gamma2"])
    d1, d2 = float(p["delta1"]), float(p["delta2"])
    for name, v in (("gamma1", g1), ("gamma2", g2), ("delta1", d1), ("delta2", d2)):
        if v < 0.0:
            raise InvalidParameter(f"{name} = {v} is negative")
    for name, share in zip(("gamma", "delta"), _male_shares(g1, g2, d1, d2)):
        if share < 0.0:
            raise InvalidParameter(f"{name}1 + {name}2 exceeds 1 by {-share}")
    return g1, g2, d1, d2


def build_algebra(s: Scenario) -> AlgebraSpec:
    """Construct the algebra for a scenario, validating its parameters."""
    entry = SCENARIOS.get(s.name)
    if entry is None:
        raise InvalidParameter(f"unknown scenario {s.name!r}")
    expected = set(entry.params)
    got = set(s.params)
    if got != expected:
        raise InvalidParameter(
            f"scenario {s.name!r} takes parameters {sorted(expected)}, got {sorted(got)}"
        )
    return entry.build(s)


def _unit_params(s: Scenario) -> list[float]:
    return [_check_unit_interval(k, s.params[k]) for k in SCENARIOS[s.name].params]


def _mutation_spec(mu: float, eta: float) -> AlgebraSpec:
    del mu  # viability does not enter the surviving-type distribution
    return type11_spec((1.0 - eta) / (2.0 - eta))


# ---------------------------------------------------------------------------
# E-set classification for the type-(2,1) family
# ---------------------------------------------------------------------------

INFINITE_ALL_POSITIVE = "infinite_all_positive_steps"
INFINITE_EVEN = "infinite_even"
INFINITE_ODD = "infinite_odd"
FINITE = "finite"


@dataclass(frozen=True)
class EsetClassification:
    """Structure of E = {t : x2 at step t is exactly zero}.

    kinds: infinite_all_positive_steps (every t >= 1 in E), infinite_even
    (E = even indices), infinite_odd (E = odd indices), finite.  For the
    finite kind eset_prefix lists E and t0 = max(E) + 1, or 0 when E is
    empty.  A finite E lies before the cycle of the support orbit, which
    has at most the three supports {x1, y}, {x2, y}, {x1, x2, y} while the
    males survive, so t0 <= 2.
    """

    kind: str
    t0: int = 0
    eset_prefix: tuple = ()


def classify_eset(z0: State, s: Scenario, spec: AlgebraSpec | None = None) -> EsetClassification:
    """Decide the structure of E exactly, from the support orbit of z0.

    x2 is in E at step t iff it is missing from the support S_t.  spec, the
    algebra of s, is built unless given.  Raises
    MaleExtinction when a support loses the male coordinate (the orbit is
    then exactly zero from the next step), and ValueError for a state with
    a negative coordinate, whose zeros need not be structural.
    """
    if s.name != "recessive_lethal":
        raise InvalidParameter("E-set classification applies to the recessive_lethal scenario")
    masks, p = support_orbit(spec or type21_spec(*_type21_params(s)), z0)
    for t, m in enumerate(masks):
        if not m[2]:
            raise MaleExtinction(f"male coordinate vanished at step {t}")
    in_e = [not m[1] for m in masks]
    if not any(in_e[p:]):
        zeros = tuple(t for t in range(p) if in_e[t])
        return EsetClassification(FINITE, t0=(max(zeros) + 1) if zeros else 0, eset_prefix=zeros)
    # x2 is missing from a cycle of supports in two ways only: {x1, y} fixed
    # (g2 = 0, and then x2 is missing from step 1 on), or {x1, y} and {x2, y}
    # alternating from step 0 (g1 = d2 = 0)
    if all(in_e[p:]) and all(in_e[1:]):
        return EsetClassification(INFINITE_ALL_POSITIVE)
    return EsetClassification(INFINITE_EVEN if in_e[0] else INFINITE_ODD)


# ---------------------------------------------------------------------------
# Limit predictions for the type-(2,1) family
# ---------------------------------------------------------------------------


def _plain(v):
    return [_plain(x) for x in v] if isinstance(v, tuple) else v


def _to_dict(self) -> dict:
    """The fields of a prediction in order, tuples as lists, for JSON export; eset is left out."""
    return {k: _plain(v) if isinstance(v, tuple) else v for k, v in vars(self).items() if k != "eset"}


@dataclass
class ClosedFormLimit:
    """Prediction record for the type-(2,1) asymptotics.

    w_limit is "zero", "infinity", "nonzero" (the boundary of the
    trichotomy), or None where it is not derived (a finite E-set with
    omega(z0) >= 4); v_limit is a single limit state, v_period2 a pair of
    alternating states (odd step first).  For the eigenvalue branches,
    lambda1 <= lambda2 are the eigenvalues of the female transfer matrix A
    (equal for repeated_eigenvalue), and selected_index names the
    smaller-modulus one.  For distinct_eigenvalues, e = (A - lambda1 I) x(t0)
    is the dominant-eigenvector part of the female state at t0,
    u_value = e2 / e1 and U_value = (sum of W(e, 1)) / e1, the limit's
    normalizer in units of e1; both are None when e1 = 0.  eset is the
    E-set classification the branch was chosen by; to_dict leaves it out.
    """

    kind: str
    boundary: bool = False
    threshold: float | None = None
    product: float | None = None
    w_limit: str | None = None
    v_limit: tuple | None = None
    v_period2: tuple | None = None
    lambda1: float | None = None
    lambda2: float | None = None
    selected_index: int | None = None
    u_value: float | None = None
    U_value: float | None = None
    t0: int = 0
    eset: EsetClassification | None = None

    to_dict = _to_dict


def _trichotomy(product: float, threshold: float) -> dict:
    """The W limit on the side of the threshold the product lies on."""
    if abs(product - threshold) < BOUNDARY_TOL:
        w_limit, boundary = "nonzero", True
    else:
        w_limit, boundary = ("zero", False) if product < threshold else ("infinity", False)
    return {"threshold": threshold, "product": product, "w_limit": w_limit, "boundary": boundary}


def _require_open_gamma(gamma: float) -> None:
    """DegenerateParameter unless PARAM_TOL < gamma < 1 - PARAM_TOL."""
    if not PARAM_TOL < gamma < 1.0 - PARAM_TOL:
        raise DegenerateParameter(f"gamma = {gamma}: the type-(1,1) closed forms need 0 < gamma < 1")


def type11_fixed_points(gamma: float) -> tuple:
    """The W fixed points (0, 0) and (1/(1-gamma), 1/gamma) of type (1,1), and no line."""
    _require_open_gamma(gamma)
    return [[0.0, 0.0], [1.0 / (1.0 - gamma), 1.0 / gamma]], None


def _type11_trichotomy(gamma: float, x: float, y: float) -> dict:
    """The type-(1,1) trichotomy of the state (x, y): |x y| against 1/(gamma(1-gamma))."""
    _require_open_gamma(gamma)
    return _trichotomy(abs(x * y), 1.0 / (gamma * (1.0 - gamma)))


def _unit_w(e1: float, e2: float, spec: AlgebraSpec) -> tuple:
    """W of the type-(2,1) state (e1, e2, 1) scaled to unit coordinate sum, and that sum."""
    w = spec._w_rows(np.array([e1, e2, 1.0]))
    total = float(w.sum())
    if total == 0.0:
        raise DegenerateDenominator("the limit direction has zero coordinate sum")
    return tuple((w / total).tolist()), total


def predict_limit_type21(
    z0: State, s: Scenario, cls: EsetClassification | None = None, spec: AlgebraSpec | None = None
) -> ClosedFormLimit:
    """Closed-form limit of the W and V orbits from z0.

    The branch is chosen by the E-set structure, recomputed internally and
    kept as eset; a supplied classification is only cross-checked.  spec, the
    algebra of s, is built unless given.  For a finite E-set the W limit is
    "zero" when omega(z0) < 4 - BOUNDARY_TOL, as omega(W(z)) = omega(x)
    omega(y) <= omega(z)^2 / 4 sends such a mass to zero, and None (not
    derived) otherwise; the V orbit goes to W(e, 1) normalized, where e =
    (A - lambda1 I) x(t0) is the part of the female state at t0 = max(E) + 1
    along the dominant eigenvector of A = [[g1, d1], [g2, d2]], the female
    transfer matrix (_type21_eigenpairs); e = x(t0) when A - lambda1 I has
    no entry of PARAM_TOL (A = lambda I) or |e|_1 <= PARAM_TOL |x(t0)|_1 max|A - lambda1 I|.
    Distinct eigenvalues of equal modulus, lambda1 = -lambda2, need g1 =
    d2 = 0; then A^2 = g2 d1 I, so from t0 on the V orbit is the period-2
    cycle of W(x(t0), 1) and W(A x(t0), 1), normalized (opposite_eigenvalues).
    """
    g1, g2, d1, d2 = _type21_params(s)
    spec = spec or type21_spec(g1, g2, d1, d2)
    actual = classify_eset(z0, s, spec)
    if cls is not None and cls.kind != actual.kind:
        raise InvalidParameter(
            f"supplied classification {cls.kind} disagrees with recomputed {actual.kind}"
        )
    cls = actual
    x1, x2, y = z0.vector.tolist()

    if cls.kind == INFINITE_ALL_POSITIVE:
        # x2 is identically zero from step 1; the surviving pair x1(1), y(1)
        # follows the one-female-type recursion with coefficient g1
        x1_next, _, y_next = spec._w_rows(z0.vector).tolist()
        return ClosedFormLimit(
            kind="single_type_tail",
            **_type11_trichotomy(g1, x1_next, y_next),
            v_limit=(g1, 0.0, 1.0 - g1),
            eset=cls,
        )

    if cls.kind in (INFINITE_ODD, INFINITE_EVEN):
        # here g1 = d2 = 0 necessarily, so the male rows reduce to
        # gbar = 1 - g2 and dbar = 1 - d1
        gbar = 1.0 - g2
        dbar = 1.0 - d1
        base = g2 * d1 * gbar * dbar
        if base <= PARAM_TOL:
            raise DegenerateParameter("period-2 thresholds need g2, d1, 1-g2, 1-d1 all nonzero")
        if cls.kind == INFINITE_ODD:
            thr = 1.0 / np.cbrt(g2 * d1**2 * gbar * dbar**2)
            prod = abs(x2 * y)
            pair = ((d1, 0.0, 1.0 - d1), (0.0, g2, 1.0 - g2))
        else:
            thr = 1.0 / np.cbrt(g2**2 * d1 * gbar**2 * dbar)
            prod = abs(x1 * y)
            pair = ((0.0, g2, 1.0 - g2), (d1, 0.0, 1.0 - d1))
        return ClosedFormLimit(
            kind="alternating_tail", **_trichotomy(prod, thr), v_period2=pair, eset=cls
        )

    # finite E: from t0 on the female part of the V orbit is carried by the
    # transfer matrix A, so it turns to the dominant eigenvector;
    # (A - lam1 I) x(t0) is its component there (a Jordan block included)
    w_limit = "zero" if omega(z0) < 4.0 - BOUNDARY_TOL else None
    t0 = cls.t0
    x1, x2 = _orbit(z0, spec, t0, normalize=True)[t0, :2].tolist()
    pairs = _type21_eigenpairs(g1, g2, d1, d2)
    (lam1, _), (lam2, (c1, c2)) = pairs[0], pairs[-1]  # one pair: repeated, lambda1 = lambda2
    distinct = len(pairs) == 2
    if distinct and abs(abs(lam1) - abs(lam2)) < PARAM_TOL:
        # up to scale, W(x(t0), 1) is the state at step t0 + 1, whose female part
        # is A x(t0), and W(A x(t0), 1) the one at t0 + 2
        first = _unit_w(x1, x2, spec)[0]
        pair = (first, _unit_w(*first[:2], spec)[0])
        return ClosedFormLimit(
            kind="opposite_eigenvalues",
            w_limit=w_limit,
            v_period2=pair if t0 % 2 == 0 else pair[::-1],  # odd step first
            lambda1=lam1,
            lambda2=lam2,
            t0=t0,
            eset=cls,
        )
    e1, e2, size = c1[0] * x1 + c2[0] * x2, c1[1] * x1 + c2[1] * x2, max(map(abs, c1 + c2))
    if size < PARAM_TOL or abs(e1) + abs(e2) <= PARAM_TOL * size * (abs(x1) + abs(x2)):
        e1, e2 = x1, x2  # x(t0) is an eigenvector already (A = lam I, the table's line, included)
    v_limit, total = _unit_w(e1, e2, spec)
    return ClosedFormLimit(
        kind="distinct_eigenvalues" if distinct else "repeated_eigenvalue",
        w_limit=w_limit,
        v_limit=v_limit,
        lambda1=lam1,
        lambda2=lam2,
        # lam2 >= |lam1| for non-negative A, so the smaller-modulus root is lam1
        selected_index=1 if distinct else None,
        u_value=e2 / e1 if distinct and e1 else None,
        U_value=total / e1 if distinct and e1 else None,
        t0=t0,
        eset=cls,
    )


# ---------------------------------------------------------------------------
# Type-(1,1) closed form
# ---------------------------------------------------------------------------


def closed_form_trajectory_type11(z0: State, gamma: float, t: int) -> State:
    """State after t steps of W in the type-(1,1) family.

    x(t) = (1/(1-gamma)) [gamma (1-gamma) x0 y0]^(2^(t-1)) and the
    analogous male expression with prefactor 1/gamma.  Overflow saturates
    to inf.  Raises DegenerateParameter unless 0 < gamma < 1 (to within
    PARAM_TOL), as the other type-(1,1) closed forms do, ShapeMismatch for a
    state that is not of type (1,1), and ValueError for t < 1.
    """
    _require_open_gamma(gamma)
    if z0._type() != (1, 1):
        raise ShapeMismatch(f"the type-(1,1) closed form takes a type-(1,1) state, not {z0._type()}")
    if t < 1:
        raise ValueError("closed form applies to t >= 1")
    base = gamma * (1.0 - gamma) * float(z0.x[0]) * float(z0.y[0])
    with np.errstate(over="ignore"):
        powered = np.power(base, 2.0 ** (t - 1))
    return Element([powered / (1.0 - gamma)], [powered / gamma])


# ---------------------------------------------------------------------------
# Hemophilia model
# ---------------------------------------------------------------------------


def hemophilia_lyapunov(z: State) -> float:
    """F(z) = (x1 + x2)(y1 + y2); non-increasing along the W orbit."""
    if z.x.shape != (2,) or z.y.shape != (2,):
        raise InvalidParameter("Lyapunov value is defined for type-(2,2) states")
    return float(z.x.sum() * z.y.sum())


@dataclass
class HemophiliaPrediction:
    kind: str  # "extinction" | "trichotomy"
    extinction_step: int | None = None
    threshold: float | None = None
    product: float | None = None
    w_limit: str | None = None
    v_constant: tuple | None = None
    boundary: bool = False
    fixed_point: tuple | None = None

    to_dict = _to_dict


def hemophilia_fixed_points(mu: float, eta: float) -> tuple:
    """The hemophilia W fixed points, and no line: the origin, and for mu < 1 (which needs
    eta = 1 to within PARAM_TOL, else UncoveredCase) (0, c/2, c/2, (1 + mu) c / (2 (1 - mu)))
    with c = 3 - mu.  Raises DegenerateParameter for mu or eta outside [0, 1]."""
    if not (0.0 <= mu <= 1.0 and 0.0 <= eta <= 1.0):
        raise DegenerateParameter("mu and eta must lie in [0, 1]")
    points = [[0.0, 0.0, 0.0, 0.0]]
    if mu < 1.0:
        if abs(eta - 1.0) >= PARAM_TOL:
            raise UncoveredCase("no closed form for mu < 1 and eta < 1; use the numeric solver")
        c = 3.0 - mu
        points.append([0.0, c / 2.0, c / 2.0, (1.0 + mu) * c / (2.0 * (1.0 - mu))])
    return points, None


def hemophilia_degenerate_limits(
    z0: State, mu: float, eta: float, spec: AlgebraSpec | None = None
) -> HemophiliaPrediction:
    """Limit behaviour of the W orbit when it dies out exactly or when eta = 1.

    Extinction is decided by the support orbit of z0 in the algebra at
    (mu, eta): the W orbit is exactly zero from step p on iff the support
    orbit reaches the empty support, first at index p.  From a state with
    both sexes present that happens at mu = 1 and at no mu < 1.  At mu = 1,
    p = 2 when eta = 1; when eta < 1, p = 3, or 2 if y1 = 0 at the start.
    A surviving orbit has a closed form only for eta = 1 (UncoveredCase
    otherwise).  With eta = 1 and mu < 1, from step 1 on x1 = 0, and
    u(t) = x2(t) (y1(t) + y2(t)) / (3 - mu) follows u(t+1) = k u(t)^2 with
    k = 2 (1 - mu) / (3 - mu).  So the W orbit goes to zero when
    |u(1)| < 1/k, blows up above that value and stays on the non-zero
    fixed point at equality (w_limit "nonzero"); u(1) comes from one W
    step.  The V orbit is constant from step 2 (from step 1 when x1 = 0).
    spec, the algebra at (mu, eta), is built unless given.  Raises
    ValueError for a state with a negative coordinate.
    """
    mu = _check_unit_interval("mu", mu)
    eta = _check_unit_interval("eta", eta)
    spec = spec or hemophilia_spec(mu, eta)
    masks, p = support_orbit(spec, z0)
    if not any(masks[p]):
        return HemophiliaPrediction(kind="extinction", extinction_step=p, w_limit="zero")
    fixed_point = tuple(hemophilia_fixed_points(mu, eta)[0][1])  # UncoveredCase unless eta = 1
    c = 3.0 - mu
    z1 = apply_W(z0, spec)
    prod = float(abs(z1.x[1] * z1.y.sum() / c))
    thr = c / (2.0 * (1.0 - mu))
    return HemophiliaPrediction(
        kind="trichotomy",
        **_trichotomy(prod, thr),
        v_constant=(0.0, (1.0 - mu) / c, (1.0 - mu) / c, (1.0 + mu) / c),
        fixed_point=fixed_point,
    )


# ---------------------------------------------------------------------------
# The scenario table, and the verifier of its predictions against iteration
# ---------------------------------------------------------------------------

# L1 distance within which a predicted point and an iterated or numeric one agree
AGREEMENT_TOL = 1e-6

# phi = swap_map of a type-(2,1) algebra as indices: phi z = z[_PHI], phi^T w = w[argsort(_PHI)]
_PHI = swap_map(type21_spec(0.0, 0.0, 0.0, 0.0)).argmax(axis=1)


def _phi(v: list | None) -> list | None:
    return None if v is None else [v[k] for k in _PHI]


def _fixed_points_type11(s: Scenario, spec: AlgebraSpec) -> tuple:
    return type11_fixed_points(float(spec.gamma[0, 0, 0]))


def _fixed_points_x_inactivation(s: Scenario, spec: AlgebraSpec) -> tuple:
    """The recessive_lethal points and line mapped by phi."""
    points, line = type21_fixed_points(*_type21_params(s))
    return np.array(points)[:, _PHI], None if line is None else tuple(v[_PHI] for v in line)


def _predict_type11(z0: State, spec: AlgebraSpec, s: Scenario) -> dict:
    _admit(spec, z0)
    _finite_start(z0)
    return {"prediction": _type11_trichotomy(float(spec.gamma[0, 0, 0]), float(z0.x[0]), float(z0.y[0]))}


def _type21_fields(pred: ClosedFormLimit) -> dict:
    return {"eset": {"kind": pred.eset.kind, "t0": pred.eset.t0}, "prediction": pred.to_dict()}


def _predict_x_inactivation(z0: State, spec: AlgebraSpec, s: Scenario) -> dict:
    """The recessive_lethal prediction from phi^T z0, its limit states mapped by
    phi; the E-set and the product refer to the male coordinates of spec."""
    _admit(spec, z0)
    z_rl = Element.from_vector(z0.vector[np.argsort(_PHI)], 2)
    out = _type21_fields(predict_limit_type21(z_rl, Scenario("recessive_lethal", s.params)))
    pred = out["prediction"]
    pred["v_limit"] = _phi(pred["v_limit"])
    pred["v_period2"] = pred["v_period2"] and [_phi(v) for v in pred["v_period2"]]
    return out


# the W limit of an orbit that does not converge, by its outcome
_W_LIMITS = {"extinct": "zero", "numerically_extinct": "zero", "divergent": "infinity", "cycle": "nonzero"}


def _l1(v) -> float:
    return float(np.abs(v).sum())


def verify_prediction(z0: State, spec: AlgebraSpec, prediction: dict) -> tuple[bool, dict]:
    """Check every non-null claim of a prediction against the orbits of z0.

    extinction_step k: the float W orbit is exactly zero first at step k.
    w_limit, by iterating W: "zero" is an extinct orbit or one converged to
    0, "infinity" a divergent one, "nonzero" one converged to fixed_point if
    the prediction gives one, else to a non-zero point, or a cycle.
    v_limit or v_constant, and v_period2, by iterating V: it converges to
    the point, or is a cycle through the pair.  Points agree within
    AGREEMENT_TOL in L1.  The detail gives the outcome of each orbit
    iterated and v_distance, the largest distance from a predicted state to
    the V limit (None where an orbit was not needed or has another shape).
    """
    claim = prediction.get
    checks = []
    detail = {"method": "iteration", "w_outcome": None, "v_outcome": None, "v_distance": None}
    k = claim("extinction_step")
    if k is not None:
        Z = _orbit(z0, spec, k, normalize=False)
        checks.append(not Z[k].any() and (k == 0 or bool(Z[k - 1].any())))
    w_limit = claim("w_limit")
    if w_limit is not None:
        out = iterate(z0, spec, operator="W").outcome
        detail["w_outcome"] = out.kind
        point = out.point.vector if out.kind == "converged" else None
        fixed_point = claim("fixed_point") if w_limit == "nonzero" else None
        if fixed_point is not None:
            checks.append(point is not None and _l1(point - np.asarray(fixed_point)) < AGREEMENT_TOL)
        elif point is not None:
            checks.append(w_limit == ("zero" if _l1(point) < AGREEMENT_TOL else "nonzero"))
        else:
            checks.append(w_limit == _W_LIMITS.get(out.kind))
    v_states = claim("v_period2") or [v for v in (claim("v_limit"), claim("v_constant")) if v is not None]
    if v_states:
        out = iterate(z0, spec, operator="V").outcome
        detail["v_outcome"] = out.kind
        reached = out.representatives or ((out.point,) if out.point is not None else ())
        if len(reached) == len(v_states):
            detail["v_distance"] = max(min(_l1(r.vector - np.asarray(v)) for r in reached) for v in v_states)
        checks.append(detail["v_distance"] is not None and detail["v_distance"] < AGREEMENT_TOL)
    return all(checks), detail


# build(s) -> spec, closed_form(s, spec) -> (W fixed points, line or None),
# predict(z0, spec, s) -> payload fields, with the "prediction" verify_prediction checks
ScenarioEntry = namedtuple("ScenarioEntry", "params description build closed_form predict")

_TYPE21 = ("gamma1", "gamma2", "delta1", "delta2")

SCENARIOS = {
    "lr_lethal": ScenarioEntry(
        ("gamma",), "type (1,1): one female, one male genotype; gamma = female offspring share",
        lambda s: type11_spec(*_unit_params(s)), _fixed_points_type11, _predict_type11,
    ),
    "lr_mutation": ScenarioEntry(
        ("mu", "eta"), "type (1,1) with gamma = (1-eta)/(2-eta) from mutation rate eta",
        lambda s: _mutation_spec(*_unit_params(s)), _fixed_points_type11, _predict_type11,
    ),
    "recessive_lethal": ScenarioEntry(
        _TYPE21, "type (2,1): normal/carrier females, one viable male genotype",
        lambda s: type21_spec(*_type21_params(s)),
        lambda s, spec: type21_fixed_points(*_type21_params(s)),
        lambda z0, spec, s: _type21_fields(predict_limit_type21(z0, s, spec=spec)),
    ),
    "hemophilia": ScenarioEntry(
        ("mu", "eta"), "type (2,2): carrier females, affected males with viability mu, fertility eta",
        lambda s: hemophilia_spec(*_unit_params(s)),
        lambda s, spec: hemophilia_fixed_points(s.params["mu"], s.params["eta"]),
        lambda z0, spec, s: {"prediction": hemophilia_degenerate_limits(z0, **s.params, spec=spec).to_dict()},
    ),
    "x_inactivation": ScenarioEntry(
        _TYPE21, "type (1,2): sexes of recessive_lethal exchanged",
        lambda s: opposite(type21_spec(*_type21_params(s))),
        _fixed_points_x_inactivation, _predict_x_inactivation,
    ),
}
