"""Named genetic scenarios and their closed-form dynamics.

Each scenario builds an algebra from a few inheritance parameters:

* lr_lethal: one female and one male type, male offspring share gamma.
* lr_mutation: same algebra with gamma derived from a mutation rate.
* recessive_lethal: two female types, one male type (lethal male allele).
* hemophilia: two female and two male types with viability mu and
  fertility eta of affected males.
* x_inactivation: role-swapped version of recessive_lethal.

Beyond construction, this module evaluates the closed forms known for
these families: trajectory formulas, limit predictions driven by the
structural-zero pattern of the heterozygous female coordinate, and the
Lyapunov bound of the hemophilia model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraSpec, Element, State, opposite
from .dynamics import apply_W
from .errors import (
    DegenerateDenominator,
    DegenerateParameter,
    EqualModulusEigenvalues,
    InvalidParameter,
    MaleExtinction,
    UncoveredCase,
)

PARAM_TOL = 1e-12
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class Scenario:
    name: str
    params: dict


SCENARIO_PARAMS = {
    "lr_lethal": ("gamma",),
    "lr_mutation": ("mu", "eta"),
    "recessive_lethal": ("gamma1", "gamma2", "delta1", "delta2"),
    "hemophilia": ("mu", "eta"),
    "x_inactivation": ("gamma1", "gamma2", "delta1", "delta2"),
}

SCENARIO_DESCRIPTIONS = {
    "lr_lethal": "type (1,1): one female, one male genotype; gamma = female offspring share",
    "lr_mutation": "type (1,1) with gamma = (1-eta)/(2-eta) from mutation rate eta",
    "recessive_lethal": "type (2,1): normal/carrier females, one viable male genotype",
    "hemophilia": "type (2,2): carrier females, affected males with viability mu, fertility eta",
    "x_inactivation": "type (1,2): sexes of recessive_lethal exchanged",
}


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


def type21_spec(g1: float, g2: float, d1: float, d2: float) -> AlgebraSpec:
    """Type (2,1): e1 m = g1 e1 + g2 e2 + (1-g1-g2) m, e2 m likewise with d's."""
    g = 1.0 - g1 - g2
    d = 1.0 - d1 - d2
    gamma = np.array([[[g1, g2]], [[d1, d2]]])
    gamma_tilde = np.array([[[g]], [[d]]])
    return AlgebraSpec(2, 1, gamma, gamma_tilde)


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
    if 1.0 - g1 - g2 < -PARAM_TOL:
        raise InvalidParameter(f"gamma1 + gamma2 = {g1 + g2} exceeds 1")
    if 1.0 - d1 - d2 < -PARAM_TOL:
        raise InvalidParameter(f"delta1 + delta2 = {d1 + d2} exceeds 1")
    return g1, g2, d1, d2


def build_algebra(s: Scenario) -> AlgebraSpec:
    """Construct the algebra for a scenario, validating its parameters."""
    if s.name not in SCENARIO_PARAMS:
        raise InvalidParameter(f"unknown scenario {s.name!r}")
    expected = set(SCENARIO_PARAMS[s.name])
    got = set(s.params)
    if got != expected:
        raise InvalidParameter(
            f"scenario {s.name!r} takes parameters {sorted(expected)}, got {sorted(got)}"
        )
    if s.name == "lr_lethal":
        return type11_spec(_check_unit_interval("gamma", s.params["gamma"]))
    if s.name == "lr_mutation":
        mu = _check_unit_interval("mu", s.params["mu"])
        eta = _check_unit_interval("eta", s.params["eta"])
        del mu  # viability does not enter the surviving-type distribution
        return type11_spec((1.0 - eta) / (2.0 - eta))
    if s.name == "recessive_lethal":
        return type21_spec(*_type21_params(s))
    if s.name == "x_inactivation":
        return opposite(type21_spec(*_type21_params(s)))
    mu = _check_unit_interval("mu", s.params["mu"])
    eta = _check_unit_interval("eta", s.params["eta"])
    return hemophilia_spec(mu, eta)


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
    finite kind t0 = max(E) + 1, or 0 when E is empty.
    """

    kind: str
    t0: int = 0
    eset_prefix: tuple = ()


def _iterate_type21_zeros(z0: State, g1, g2, d1, d2, steps: int):
    """Normalized iteration preserving the exact-zero pattern.

    Each state is rescaled by its L1 norm; the positive rescaling keeps
    every structurally zero coordinate exactly 0.0 while preventing the
    doubling-exponent underflow that would create spurious zeros.
    Raises MaleExtinction the moment the male coordinate hits 0.0.
    """
    g = 1.0 - g1 - g2
    d = 1.0 - d1 - d2
    x1, x2, y = float(z0.x[0]), float(z0.x[1]), float(z0.y[0])
    if y == 0.0:
        raise MaleExtinction("male coordinate is zero at step 0")
    out = [(x1, x2, y)]
    for _ in range(steps):
        x1, x2, y = (
            (g1 * x1 + d1 * x2) * y,
            (g2 * x1 + d2 * x2) * y,
            (g * x1 + d * x2) * y,
        )
        if y == 0.0:
            raise MaleExtinction("male coordinate vanished during the scan")
        scale = abs(x1) + abs(x2) + abs(y)
        x1, x2, y = x1 / scale, x2 / scale, y / scale
        out.append((x1, x2, y))
    return out


ESET_SCAN_STEPS = 64


def classify_eset(z0: State, s: Scenario) -> EsetClassification:
    """Decide the structure of E from the first few iterates.

    The finite-time criteria: with g2 = 0, E is infinite iff x2 vanishes
    at step 1 (then every positive index is in E).  With g2 != 0, E is
    infinite iff the zeros at steps 0..3 match the odd pattern
    (x1(0) = 0, x2(1) = x2(3) = 0) or the even pattern (x1(1) = 0,
    x2(0) = x2(2) = 0).  Otherwise E is finite and a bounded scan locates
    its maximum.
    """
    if s.name != "recessive_lethal":
        raise InvalidParameter("E-set classification applies to the recessive_lethal scenario")
    g1, g2, d1, d2 = _type21_params(s)
    states = _iterate_type21_zeros(z0, g1, g2, d1, d2, ESET_SCAN_STEPS)
    x1s = [st[0] for st in states]
    x2s = [st[1] for st in states]

    if abs(g2) <= PARAM_TOL:
        if x2s[1] == 0.0:
            return EsetClassification(INFINITE_ALL_POSITIVE)
    else:
        if x1s[0] == 0.0 and x2s[1] == 0.0 and x2s[3] == 0.0:
            return EsetClassification(INFINITE_ODD)
        if x1s[1] == 0.0 and x2s[0] == 0.0 and x2s[2] == 0.0:
            return EsetClassification(INFINITE_EVEN)

    zeros = tuple(t for t, v in enumerate(x2s) if v == 0.0)
    t0 = (max(zeros) + 1) if zeros else 0
    return EsetClassification(FINITE, t0=t0, eset_prefix=zeros)


# ---------------------------------------------------------------------------
# Limit predictions for the type-(2,1) family
# ---------------------------------------------------------------------------


@dataclass
class ClosedFormLimit:
    """Prediction record for the type-(2,1) asymptotics.

    w_limit is "zero", "infinity", or "nonzero" (the boundary of the
    trichotomy); v_limit is a single limit state, v_period2 a pair of
    alternating states (odd step first).  For the eigenvalue branch,
    lambda1 <= lambda2 are the roots of the female-transfer-matrix
    characteristic polynomial and u_value, U_value the interpolation
    quantities evaluated at the selected root.
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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "boundary": self.boundary,
            "threshold": self.threshold,
            "product": self.product,
            "w_limit": self.w_limit,
            "v_limit": list(self.v_limit) if self.v_limit else None,
            "v_period2": [list(v) for v in self.v_period2] if self.v_period2 else None,
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "selected_index": self.selected_index,
            "u_value": self.u_value,
            "U_value": self.U_value,
            "t0": self.t0,
        }


def _trichotomy(product: float, threshold: float) -> tuple[str, bool]:
    if abs(product - threshold) < BOUNDARY_TOL:
        return "nonzero", True
    return ("zero", False) if product < threshold else ("infinity", False)


def predict_limit_type21(
    z0: State, s: Scenario, cls: EsetClassification | None = None
) -> ClosedFormLimit:
    """Closed-form limit of the W and V orbits from z0.

    The branch is chosen by the E-set structure, which is recomputed
    internally; a supplied classification is only cross-checked.
    """
    g1, g2, d1, d2 = _type21_params(s)
    g = 1.0 - g1 - g2
    d = 1.0 - d1 - d2
    actual = classify_eset(z0, s)
    if cls is not None and cls.kind != actual.kind:
        raise InvalidParameter(
            f"supplied classification {cls.kind} disagrees with recomputed {actual.kind}"
        )
    cls = actual
    x1, x2, y = float(z0.x[0]), float(z0.x[1]), float(z0.y[0])

    if cls.kind == INFINITE_ALL_POSITIVE:
        # x2 is identically zero from step 1; the surviving pair follows the
        # one-female-type recursion with coefficient g1
        if g1 <= PARAM_TOL or g1 >= 1.0 - PARAM_TOL:
            raise DegenerateParameter("threshold 1/(g1(1-g1)) needs 0 < gamma1 < 1")
        x1_1 = (g1 * x1 + d1 * x2) * y
        y_1 = (g * x1 + d * x2) * y
        prod = abs(x1_1 * y_1)
        thr = 1.0 / (g1 * (1.0 - g1))
        w_limit, boundary = _trichotomy(prod, thr)
        return ClosedFormLimit(
            kind="single_type_tail",
            boundary=boundary,
            threshold=thr,
            product=prod,
            w_limit=w_limit,
            v_limit=(g1, 0.0, 1.0 - g1),
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
        w_limit, boundary = _trichotomy(prod, thr)
        return ClosedFormLimit(
            kind="alternating_tail",
            boundary=boundary,
            threshold=thr,
            product=prod,
            w_limit=w_limit,
            v_period2=pair,
        )

    # finite E: the W orbit always collapses to zero; the V limit comes from
    # the female transfer matrix [[g1, d1], [g2, d2]]
    t0 = cls.t0
    delta_disc = (g1 - d2) ** 2 + 4.0 * g2 * d1
    states = _iterate_type21_zeros(z0, g1, g2, d1, d2, max(t0, 1))
    x1_t0, x2_t0 = states[t0][0], states[t0][1]

    if delta_disc < PARAM_TOL:
        # repeated eigenvalue: g1 = d2 and g2 d1 = 0
        if g2 > PARAM_TOL and d1 <= PARAM_TOL:
            v_limit = (0.0, d2, d)
        elif g2 <= PARAM_TOL and d1 > PARAM_TOL:
            v_limit = (g1, 0.0, g)
        else:
            tot = x1_t0 + x2_t0
            if abs(tot) < 1e-300:
                raise DegenerateDenominator("female mass at the reference step is zero")
            v_limit = (
                g1 * x1_t0 / tot,
                d2 * x2_t0 / tot,
                (g * x1_t0 + d * x2_t0) / tot,
            )
        return ClosedFormLimit(
            kind="repeated_eigenvalue",
            w_limit="zero",
            v_limit=v_limit,
            lambda1=g1,
            lambda2=g1,
            t0=t0,
        )

    root = float(np.sqrt(delta_disc))
    lam1 = (g1 + d2 - root) / 2.0
    lam2 = (g1 + d2 + root) / 2.0
    if abs(abs(lam1) - abs(lam2)) < 1e-12:
        raise EqualModulusEigenvalues(
            f"|lambda1| = |lambda2| = {abs(lam1)}; no root is selected"
        )
    idx = 1 if abs(lam1) < abs(lam2) else 2
    lam = lam1 if idx == 1 else lam2
    den = (g1 - lam) * x1_t0 + d1 * x2_t0
    if abs(den) < 1e-300:
        raise DegenerateDenominator("denominator of u vanishes at the reference step")
    u = (g2 * x1_t0 + (d2 - lam) * x2_t0) / den
    U = d1 * u**2 + (d + d1 + g1) * u + g + g1
    if abs(U) < 1e-300:
        raise DegenerateDenominator("normalizing quantity U vanishes")
    v_limit = (
        (g1 + d1 * u) / U,
        u * (g1 + d1 * u) / U,
        (g + d * u) / U,
    )
    return ClosedFormLimit(
        kind="distinct_eigenvalues",
        w_limit="zero",
        v_limit=v_limit,
        lambda1=lam1,
        lambda2=lam2,
        selected_index=idx,
        u_value=float(u),
        U_value=float(U),
        t0=t0,
    )


# ---------------------------------------------------------------------------
# Type-(1,1) closed form
# ---------------------------------------------------------------------------


def closed_form_trajectory_type11(z0: State, gamma: float, t: int) -> State:
    """State after t steps of W in the type-(1,1) family.

    x(t) = (1/(1-gamma)) [gamma (1-gamma) x0 y0]^(2^(t-1)) and the
    analogous male expression with prefactor 1/gamma.  Overflow saturates
    to inf.
    """
    if not 0.0 < gamma < 1.0:
        raise DegenerateParameter("closed form needs 0 < gamma < 1")
    if t < 1:
        raise ValueError("closed form applies to t >= 1")
    base = gamma * (1.0 - gamma) * float(z0.x[0]) * float(z0.y[0])
    with np.errstate(over="ignore"):
        powered = np.power(base, 2.0 ** (t - 1))
    return Element(
        np.array([powered / (1.0 - gamma)]),
        np.array([powered / gamma]),
    )


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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "extinction_step": self.extinction_step,
            "threshold": self.threshold,
            "product": self.product,
            "w_limit": self.w_limit,
            "v_constant": list(self.v_constant) if self.v_constant else None,
            "boundary": self.boundary,
            "fixed_point": list(self.fixed_point) if self.fixed_point else None,
        }


def _hemophilia_degenerate_case(mu: float, eta: float) -> tuple[bool, bool]:
    """Whether mu = 1 and whether eta = 1, to within PARAM_TOL.

    The hemophilia closed forms need one of the two; UncoveredCase otherwise.
    """
    mu_is_one = abs(mu - 1.0) < PARAM_TOL
    eta_is_one = abs(eta - 1.0) < PARAM_TOL
    if not mu_is_one and not eta_is_one:
        raise UncoveredCase("no closed form for mu < 1 and eta < 1; use the numeric solver")
    return mu_is_one, eta_is_one


def _hemophilia_fixed_point(mu: float) -> tuple:
    """The non-zero W fixed point of the eta = 1, mu < 1 model.

    (0, c/2, c/2, (1 + mu) c / (2 (1 - mu))) with c = 3 - mu.
    """
    c = 3.0 - mu
    return (0.0, c / 2.0, c / 2.0, (1.0 + mu) * c / (2.0 * (1.0 - mu)))


def hemophilia_degenerate_limits(z0: State, mu: float, eta: float) -> HemophiliaPrediction:
    """Limit behaviour when mu = 1 or eta = 1.

    mu = eta = 1: exact extinction at step 2.  mu = 1, eta < 1: exact
    extinction at step 3.  mu < 1, eta = 1: from step 1 on x1 = 0, and
    u(t) = x2(t) (y1(t) + y2(t)) / (3 - mu) follows u(t+1) = k u(t)^2 with
    k = 2 (1 - mu) / (3 - mu).  So the W orbit goes to zero when
    |u(1)| < 1/k, blows up above that value and stays on the non-zero
    fixed point at equality (w_limit "nonzero"); u(1) comes from one W
    step.  The V orbit is constant from step 2 (from step 1 when x1 = 0).
    """
    mu = _check_unit_interval("mu", mu)
    eta = _check_unit_interval("eta", eta)
    mu_is_one, eta_is_one = _hemophilia_degenerate_case(mu, eta)
    if mu_is_one:
        return HemophiliaPrediction(
            kind="extinction", extinction_step=2 if eta_is_one else 3, w_limit="zero"
        )
    c = 3.0 - mu
    z1 = apply_W(z0, hemophilia_spec(mu, eta))
    prod = float(abs(z1.x[1] * z1.y.sum() / c))
    thr = c / (2.0 * (1.0 - mu))
    w_limit, boundary = _trichotomy(prod, thr)
    return HemophiliaPrediction(
        kind="trichotomy",
        threshold=thr,
        product=prod,
        w_limit=w_limit,
        v_constant=(0.0, (1.0 - mu) / c, (1.0 - mu) / c, (1.0 + mu) / c),
        boundary=boundary,
        fixed_point=_hemophilia_fixed_point(mu),
    )
