"""Evolution operators and trajectory iteration.

W maps a population state to the absolute offspring proportions of the next
generation (half the algebra square); V renormalizes W onto the simplex and
gives genotype frequencies.  Iteration tracks the coordinate-sum sequence
and classifies the terminal behaviour.

Zeros are structural here: a coordinate that is exactly 0.0 stays exactly
0.0 under W, so extinction and one-sex absorption are tested with exact
equality.  A separate "numerically extinct" outcome catches underflow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraSpec, Element, State, multiply, omega
from .errors import AbsorbedToO, NotStochastic, ShapeMismatch, SingularMap

UNDERFLOW_OMEGA = 1e-300
# A return within conv_tol to an earlier state counts as a cycle only while
# the orbit still moves by at least this multiple of conv_tol per step.  An
# orbit converging from alternating sides at rate lambda returns within
# conv_tol at gap 2 while its step is still about conv_tol * lambda/(1-lambda),
# so only orbits with lambda above ~0.999, which need some 10^4 steps to
# converge, can still be taken for a cycle.
CYCLE_MIN_STEP_FACTOR = 1e3


@dataclass(frozen=True)
class IterationOptions:
    conv_tol: float = 1e-9
    patience: int = 3
    div_threshold: float = 1e12
    max_steps: int = 500
    max_period: int = 8


@dataclass(frozen=True)
class Outcome:
    """Terminal classification of a trajectory.

    kind is one of: converged, extinct, numerically_extinct, absorbed,
    cycle, divergent, max_iterations.  step marks where the outcome was
    first detected; period and representatives are set for cycles only.
    """

    kind: str
    step: int | None = None
    point: State | None = None
    period: int | None = None
    representatives: tuple = ()

    def describe(self) -> str:
        parts = [f"outcome={self.kind}"]
        if self.step is not None:
            parts.append(f"step={self.step}")
        if self.period is not None:
            parts.append(f"period={self.period}")
        return ",".join(parts)


@dataclass
class Trajectory:
    states: list
    omegas: list
    outcome: Outcome
    operator: str = "W"

    def to_csv(self, path) -> None:
        n = self.states[0].x.shape[0]
        nu = self.states[0].y.shape[0]
        header = (
            ["t"]
            + [f"x{i + 1}" for i in range(n)]
            + [f"y{j + 1}" for j in range(nu)]
            + ["omega"]
        )
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for t, (s, om) in enumerate(zip(self.states, self.omegas)):
                vals = [str(t)] + [f"{v:.17g}" for v in s.vector] + [f"{om:.17g}"]
                fh.write(",".join(vals) + "\n")
            fh.write(f"# {self.outcome.describe()}\n")

    def to_dict(self) -> dict:
        return {
            "operator": self.operator,
            "states": [s.vector.tolist() for s in self.states],
            "omegas": list(self.omegas),
            "outcome": {
                "kind": self.outcome.kind,
                "step": self.outcome.step,
                "period": self.outcome.period,
                "point": self.outcome.point.vector.tolist() if self.outcome.point else None,
            },
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


def apply_W(z: State, spec: AlgebraSpec) -> State:
    """One generation of absolute proportions: half the algebra square of z."""
    if not z.conforms(spec):
        raise ShapeMismatch("state does not conform to the algebra type")
    return Element.from_vector(np.outer(z.x, z.y).ravel() @ spec.kernel, spec.n)


def apply_V(z: State, spec: AlgebraSpec) -> State:
    """Frequency-distribution step: W(z) normalized to unit coordinate sum."""
    if not spec.is_stochastic():
        raise NotStochastic("normalized operator requires a stochastic algebra")
    w = apply_W(z, spec)
    total = omega(w)
    if total == 0.0:
        raise AbsorbedToO()
    return Element(w.x / total, w.y / total)


def iterate(
    z0: State,
    spec: AlgebraSpec,
    operator: str = "W",
    opts: IterationOptions | None = None,
) -> Trajectory:
    """Iterate W or V from z0 until a terminal outcome or max_steps.

    Outcome precedence at each step: extinction, absorption, convergence,
    cycle, divergence.  Convergence requires the L1 step size to stay below
    conv_tol for `patience` consecutive steps; a cycle is a return (within
    conv_tol) to a state seen at most max_period steps earlier, made while
    the step size is still at least CYCLE_MIN_STEP_FACTOR * conv_tol, and
    its period is the smallest such gap.  Raises ValueError for a
    non-finite z0 or a non-finite structure constant.

    The orbit is computed on rows of one preallocated array, one kernel
    contraction per step; the states are wrapped as Elements at the end.
    """
    if operator not in ("W", "V"):
        raise ValueError(f"operator must be 'W' or 'V', got {operator!r}")
    opts = opts or IterationOptions()
    if not z0.conforms(spec):
        raise ShapeMismatch("state does not conform to the algebra type")
    if not np.isfinite(z0.x).all() or not np.isfinite(z0.y).all():
        raise ValueError("initial state has a non-finite coordinate")
    if not spec.is_finite():
        raise ValueError("algebra has a non-finite structure constant")
    if operator == "V" and not spec.is_stochastic():
        raise NotStochastic("normalized operator requires a stochastic algebra")
    normalize = operator == "V"
    n, K = spec.n, spec.kernel

    Z = np.empty((opts.max_steps + 1, spec.dim))
    Z[0] = z0.vector
    last = 0  # index of the last state of the orbit
    quiet = 0  # consecutive small steps
    kind, period = None, None
    for t in range(1, opts.max_steps + 1):
        prev = Z[t - 1]
        z = Z[t]
        np.matmul((prev[:n, None] * prev[n:]).ravel(), K, out=z)
        if normalize:
            total = z[:n].sum() + z[n:].sum()
            if total == 0.0:
                kind = "absorbed"
                break
            z /= total
        last = t

        mag = np.abs(z)
        l1 = mag.sum()
        if l1 == 0.0:
            kind = "extinct"
            break
        if mag.max() < UNDERFLOW_OMEGA and abs(z[:n].sum() + z[n:].sum()) < UNDERFLOW_OMEGA:
            kind = "numerically_extinct"
            break
        if not normalize and not (z[:n].any() and z[n:].any()):
            # one sex is missing: the next step sends the state to exactly zero
            continue

        diff = float(np.abs(z - prev).sum())
        quiet = quiet + 1 if diff < opts.conv_tol else 0
        if quiet >= opts.patience:
            kind = "converged"
            break

        # a slowly converging orbit revisits its own neighborhood; only look
        # for cycles while the consecutive step is far from convergence-small
        max_gap = min(opts.max_period, t)
        if diff >= CYCLE_MIN_STEP_FACTOR * opts.conv_tol and max_gap >= 2:
            # row j of the window is the state max_gap - j steps back
            dist = np.abs(Z[t - max_gap : t - 1] - z).sum(axis=1)
            hits = np.flatnonzero(dist < opts.conv_tol)
            if hits.size:
                kind, period = "cycle", max_gap - int(hits[-1])
                break

        if l1 > opts.div_threshold:
            kind = "divergent"
            break

    Z = Z[: last + 1].copy()  # the states keep only the rows the orbit used
    omegas = (Z[:, :n].sum(axis=1) + Z[:, n:].sum(axis=1)).tolist()
    states = [z0] + [Element(z[:n], z[n:]) for z in Z[1:]]
    outcome = Outcome(
        kind or "max_iterations",
        step=last,
        point=states[-1] if kind == "converged" else None,
        period=period,
        representatives=tuple(states[-period:]) if kind == "cycle" else (),
    )
    return Trajectory(states, omegas, outcome, operator)


@dataclass
class BoundReport:
    all_pass: bool
    first_violation: dict | None = None
    checked_steps: int = 0
    details: list = field(default_factory=list)


def _log_or_none(v: float):
    # subnormal values have lost mantissa bits; treat them as underflowed zero
    return np.log(v) if v > UNDERFLOW_OMEGA else None


def verify_omega_bounds(z0: State, spec: AlgebraSpec, t_max: int) -> BoundReport:
    """Check the growth/decay envelopes of the coordinate-sum sequence s(t).

    With m = min over rows of sqrt(gamma_ip gamma~_ip) and M = max over
    row pairs of gamma_ip gamma~_pq, the checks for 0 <= t <= t_max are:

      * s(t) non-increasing when s(0) <= 4;
      * one-step squeeze for t >= 2:
        m^2 s(t-1)^2 <= s(t) <= M s(t-1)^2;
      * doubling envelopes anchored one step in (t >= 1):
        m^(2(2^(t-1) - 1)) s(1)^(2^(t-1)) <= s(t) <= M^(2^(t-1) - 1) s(1)^(2^(t-1));
      * quadrupling refinement with base M/16: even t anchored at s(0),
        odd t anchored at s(1).

    The doubling and odd-refinement envelopes are anchored at s(1) rather
    than s(0) because s(1) is a product of sex totals, not a square, and
    admits no two-sided comparison with s(0)^2.  Comparisons run in log
    space to dodge overflow of the doubling exponents.  Requires a
    stochastic algebra and a non-negative z0.
    """
    if not spec.is_stochastic():
        raise NotStochastic("omega bounds require a stochastic algebra")
    g = spec.female_row_sums()
    gt = spec.male_row_sums()
    min_sqrt = float(np.sqrt(g * gt).min())
    max_cross = float(np.outer(g.ravel(), gt.ravel()).max())

    traj = [z0]
    for _ in range(t_max):
        traj.append(apply_W(traj[-1], spec))
    oms = [omega(z) for z in traj]

    slack = 1e-9
    report = BoundReport(all_pass=True, checked_steps=t_max)

    def fail(t, which, lhs, rhs):
        report.all_pass = False
        if report.first_violation is None:
            report.first_violation = {"t": t, "bound": which, "lhs": lhs, "rhs": rhs}

    def check_lower(t, which, log_lb):
        """log_lb None means a zero lower bound: trivially satisfied."""
        if log_lb is None:
            return
        log_om = _log_or_none(oms[t])
        if log_om is None:
            if log_lb > np.log(1e-290):
                fail(t, which, 0.0, float(np.exp(min(log_lb, 700.0))))
        elif log_om < log_lb - slack:
            fail(t, which, oms[t], float(np.exp(min(log_lb, 700.0))))

    def check_upper(t, which, log_ub):
        """log_ub None means a zero upper bound: omega must be zero too."""
        log_om = _log_or_none(oms[t])
        if log_om is None:
            return
        if log_ub is None:
            fail(t, which, oms[t], 0.0)
        elif log_om > log_ub + slack:
            fail(t, which, oms[t], float(np.exp(min(log_ub, 700.0))))

    def combine(log_base, exponent, log_anchor, anchor_exp):
        if log_base is None or log_anchor is None:
            # a zero factor with positive exponent collapses the bound to zero
            if (log_base is None and exponent > 0) or (log_anchor is None and anchor_exp > 0):
                return None
            return (log_base or 0.0) * exponent + (log_anchor or 0.0) * anchor_exp
        return log_base * exponent + log_anchor * anchor_exp

    monotone = oms[0] <= 4.0 + 1e-12
    log_m = _log_or_none(min_sqrt)
    log_M = _log_or_none(max_cross)
    log_M16 = _log_or_none(max_cross / 16.0)
    log_om0 = _log_or_none(oms[0])
    log_om1 = _log_or_none(oms[1]) if t_max >= 1 else None

    for t in range(t_max + 1):
        if monotone and t >= 1 and oms[t] > oms[t - 1] * (1 + slack) + 1e-15:
            fail(t, "monotone_decrease", oms[t], oms[t - 1])

        if t >= 2:
            prev = _log_or_none(oms[t - 1])
            check_lower(t, "step_lower", combine(log_m, 2.0, prev, 2.0))
            check_upper(t, "step_upper", combine(log_M, 1.0, prev, 2.0))

        if t >= 1:
            e = 2.0 ** (t - 1)
            check_lower(t, "lower", combine(log_m, 2.0 * (e - 1.0), log_om1, e))
            check_upper(t, "upper", combine(log_M, e - 1.0, log_om1, e))

        half = t // 2
        four_h = 4.0**half
        ref_exp = (four_h - 1.0) / 3.0
        if t >= 2 and t % 2 == 0:
            check_upper(t, "refined_upper_even", combine(log_M16, ref_exp, log_om0, four_h))
        elif t >= 1 and t % 2 == 1:
            check_upper(t, "refined_upper_odd", combine(log_M16, ref_exp, log_om1, four_h))
    return report


def verify_coordinate_bounds(z0: State, spec: AlgebraSpec, t_max: int) -> BoundReport:
    """Check the per-coordinate envelopes along the V orbit, for t >= 1.

    Each female coordinate of V^t(z0) must lie between the min and max of
    the corresponding gamma[:, :, k] slab, and analogously for males.
    """
    if not spec.is_stochastic():
        raise NotStochastic("coordinate bounds require a stochastic algebra")
    x_lo = spec.gamma.min(axis=(0, 1))
    x_hi = spec.gamma.max(axis=(0, 1))
    y_lo = spec.gamma_tilde.min(axis=(0, 1))
    y_hi = spec.gamma_tilde.max(axis=(0, 1))

    tol = 1e-12
    report = BoundReport(all_pass=True, checked_steps=t_max)
    z = z0
    for t in range(1, t_max + 1):
        z = apply_V(z, spec)  # raises AbsorbedToO if the orbit hits the boundary set
        ok = (
            np.all(z.x >= x_lo - tol)
            and np.all(z.x <= x_hi + tol)
            and np.all(z.y >= y_lo - tol)
            and np.all(z.y <= y_hi + tol)
        )
        if not ok:
            report.all_pass = False
            if report.first_violation is None:
                report.first_violation = {"t": t, "bound": "coordinate", "state": z.vector.tolist()}
    return report


def verify_conjugacy(
    spec1: AlgebraSpec,
    spec2: AlgebraSpec,
    phi: np.ndarray,
    samples: int = 20,
    seed: int = 0,
    tol: float = 1e-9,
) -> bool:
    """Test whether phi intertwines the two W operators and multiplies products.

    Returns True iff phi(W1(z)) == W2(phi(z)) on all sampled z and
    phi(ab) == phi(a) phi(b) on sampled pairs, within tol (L1).
    """
    phi = np.asarray(phi, dtype=float)
    d1 = spec1.dim
    if phi.shape != (spec2.dim, d1):
        raise ShapeMismatch("phi has the wrong shape for these algebras")
    if phi.shape[0] == phi.shape[1] and abs(np.linalg.det(phi)) < 1e-12:
        raise SingularMap("phi is numerically singular")

    rng = np.random.default_rng(seed)

    def elem1():
        v = rng.uniform(-1, 1, d1)
        return Element.from_vector(v, spec1.n)

    def push(el):
        return Element.from_vector(phi @ el.vector, spec2.n)

    for _ in range(samples):
        z = elem1()
        lhs = push(apply_W(z, spec1)).vector
        rhs = apply_W(push(z), spec2).vector
        if float(np.abs(lhs - rhs).sum()) > tol:
            return False
        a, b = elem1(), elem1()
        lhs = push(multiply(a, b, spec1)).vector
        rhs = multiply(push(a), push(b), spec2).vector
        if float(np.abs(lhs - rhs).sum()) > tol:
            return False
    return True
