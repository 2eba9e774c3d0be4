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

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, Element, State, json_line, multiply, write_text
from .errors import AbsorbedToO, NotStochastic, ShapeMismatch, SingularMap

UNDERFLOW_OMEGA = 1e-300
# A return within conv_tol to an earlier state counts as a cycle only while
# the orbit still moves by at least this multiple of conv_tol per step.  An
# orbit converging from alternating sides at rate lambda returns within
# conv_tol at gap 2 while its step is still about conv_tol * lambda/(1-lambda),
# so only orbits with lambda above ~0.999, which need some 10^4 steps to
# converge, can still be taken for a cycle.
CYCLE_MIN_STEP_FACTOR = 1e3
# iterate steps and classifies the orbit this many steps at a time
_BLOCK = 8


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
    final_step_l1 is the L1 size of the last step, None when no step was
    taken.
    """

    kind: str
    step: int | None = None
    point: State | None = None
    period: int | None = None
    representatives: tuple = ()
    final_step_l1: float | None = None

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
        """Write a header, one row per state (t, x, y, omega) and the outcome.

        Each float has 17 significant digits, so it reads back bit for bit.
        The rows are formatted in one operation over one array of the states.
        """
        n = self.states[0].x.shape[0]
        nu = self.states[0].y.shape[0]
        header = (
            ["t"]
            + [f"x{i + 1}" for i in range(n)]
            + [f"y{j + 1}" for j in range(nu)]
            + ["omega"]
        )
        rows = np.empty((len(self.states), n + nu + 2))
        rows[:, 0] = np.arange(len(rows))
        rows[:, 1 : n + 1] = [s.x for s in self.states]
        rows[:, n + 1 : -1] = [s.y for s in self.states]
        rows[:, -1] = self.omegas
        line = "%d," + ",".join(["%.17g"] * (n + nu + 1)) + "\n"
        write_text(
            path,
            ",".join(header)
            + "\n"
            + (line * len(rows)) % tuple(rows.ravel().tolist())
            + f"# {self.outcome.describe()}\n",
        )

    def to_dict(self) -> dict:
        return {
            "operator": self.operator,
            "states": [s.vector.tolist() for s in self.states],
            "omegas": list(self.omegas),
            "outcome": {
                "kind": self.outcome.kind,
                "step": self.outcome.step,
                "period": self.outcome.period,
                "final_step_l1": self.outcome.final_step_l1,
                "point": self.outcome.point.vector.tolist() if self.outcome.point else None,
            },
        }

    def to_json(self, path) -> None:
        write_text(path, json_line(self.to_dict()))


def _step_rows(Z: np.ndarray, start: int, stop: int, spec: AlgebraSpec, normalize: bool) -> int:
    """Fill rows start..stop-1 of Z, each with the image of the row before it.

    One kernel contraction per row; with normalize the row is then divided
    by its coordinate sum (the V step).  Returns the first row whose W image
    sums to exactly zero under normalize, where V is undefined and the row
    is left unfinished, else stop.
    """
    n, K = spec.n, spec.kernel
    X, Y = Z[:, :n, None], Z[:, n:]
    add = np.add.reduce  # what ndarray.sum calls, without its Python wrapper
    for t in range(start, stop):
        z = Z[t]
        # np.dot: the same BLAS product as matmul, at less call overhead
        np.dot((X[t - 1] * Y[t - 1]).ravel(), K, out=z)
        if normalize:
            total = add(z[:n]) + add(z[n:])
            if total == 0.0:
                return t
            z /= total
    return stop


def _orbit(z0: State, spec: AlgebraSpec, steps: int, normalize: bool) -> np.ndarray:
    """The (steps + 1, dim) orbit of z0 under W, or under V with normalize.

    With normalize, raises AbsorbedToO at the first W image whose
    coordinate sum is exactly zero, where V is undefined.
    """
    if not z0.conforms(spec):
        raise ShapeMismatch("state does not conform to the algebra type")
    Z = np.empty((steps + 1, spec.dim))
    Z[0] = z0.vector
    if _step_rows(Z, 1, steps + 1, spec, normalize) <= steps:
        raise AbsorbedToO()
    return Z


def apply_W(z: State, spec: AlgebraSpec) -> State:
    """One generation of absolute proportions: half the algebra square of z."""
    return Element.from_vector(_orbit(z, spec, 1, normalize=False)[1], spec.n)


def apply_V(z: State, spec: AlgebraSpec) -> State:
    """Frequency-distribution step: W(z) normalized to unit coordinate sum."""
    if not spec.is_stochastic():
        raise NotStochastic("normalized operator requires a stochastic algebra")
    return Element.from_vector(_orbit(z, spec, 1, normalize=True)[1], spec.n)


def support_orbit(spec: AlgebraSpec, z: State) -> tuple[list, int]:
    """The supports of the W orbit of z, up to their first repeat.

    Returns the distinct masks S_0, ..., S_{p+q-1} (tuples of bools, one
    per coordinate) and the index p where their cycle starts, so that
    S_t = S_{p + (t - p) % q} for t >= p.  With a stochastic kernel and a
    non-negative state no sum cancels, so S_{t+1} is exactly the set of k
    with K[i nu + j, k] != 0 for some i in the female and j in the male part
    of S_t: the exact zeros of the orbit, with no step budget and no
    underflow.  Raises NotStochastic for an algebra that is not stochastic
    and ValueError for a state with a negative or non-finite coordinate.
    """
    if not z.conforms(spec):
        raise ShapeMismatch("state does not conform to the algebra type")
    if not spec.is_stochastic():
        raise NotStochastic("the support orbit requires a stochastic algebra")
    v = z.vector.tolist()
    if not all(0.0 <= c < math.inf for c in v):
        raise ValueError("the support orbit requires a finite state without negative coordinates")
    n, nu = spec.n, spec.nu
    # a rounding residue below zero, which a stochastic kernel may hold, is not zero in W either
    K = (spec.kernel != 0.0).tolist()
    s = tuple(c > 0.0 for c in v)
    masks, seen = [], {}
    while s not in seen:
        seen[s] = len(masks)
        masks.append(s)
        rows = [K[i * nu + j] for i in range(n) if s[i] for j in range(nu) if s[n + j]]
        s = tuple(map(any, zip(*rows))) if rows else (False,) * len(v)
    return masks, seen[s]


def _underflowed(z: np.ndarray, n: int) -> bool:
    """Every coordinate and the coordinate sum below UNDERFLOW_OMEGA in size."""
    return np.abs(z).max() < UNDERFLOW_OMEGA and abs(z[:n].sum() + z[n:].sum()) < UNDERFLOW_OMEGA


def _row_omegas(Z: np.ndarray, n: int) -> np.ndarray:
    """Coordinate sum of each row of Z, summed as omega() sums an Element."""
    return Z[:, :n].sum(axis=1) + Z[:, n:].sum(axis=1)


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
    non-finite z0, a non-finite structure constant, or options out of
    range: max_steps below 0, patience or max_period below 1, or a
    conv_tol or div_threshold that is not finite and positive.

    The orbit is computed on rows of one preallocated array, _BLOCK steps
    at a time with one kernel contraction per step.  Each block is then
    classified from a few reductions over its rows (L1 norm, L1 step, L1
    distance to each of the rows 2..max_period back) and a Python pass
    that applies the precedence above row by row, so the outcome is the
    first event in step order.  Rows computed past the terminal step are
    dropped.  Overflow and invalid-value warnings are off while the orbit
    is computed, so those rows never warn; an overflow in a kept row shows
    in its state.  The states are read-only views of the kept rows.
    """
    if operator not in ("W", "V"):
        raise ValueError(f"operator must be 'W' or 'V', got {operator!r}")
    opts = opts or IterationOptions()
    if opts.max_steps < 0 or opts.patience < 1 or opts.max_period < 1:
        raise ValueError(
            "max_steps must be at least 0, patience and max_period at least 1; got "
            f"{opts.max_steps}, {opts.patience}, {opts.max_period}"
        )
    for name in ("conv_tol", "div_threshold"):
        value = getattr(opts, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if not z0.conforms(spec):
        raise ShapeMismatch("state does not conform to the algebra type")
    if not np.isfinite(z0.x).all() or not np.isfinite(z0.y).all():
        raise ValueError("initial state has a non-finite coordinate")
    if not spec.is_finite():
        raise ValueError("algebra has a non-finite structure constant")
    if operator == "V" and not spec.is_stochastic():
        raise NotStochastic("normalized operator requires a stochastic algebra")
    normalize = operator == "V"
    n = spec.n

    # A cycle returns 2..max_period steps back, never before step 0: the
    # rows in front of Z are inf, at infinite distance from every state.
    gaps = np.arange(2, min(opts.max_period, opts.max_steps) + 1)
    pad = len(gaps)
    Zp = np.empty((pad + opts.max_steps + 1, spec.dim))
    Zp[:pad] = np.inf
    Z = Zp[pad:]
    Z[0] = z0.vector
    # back[r, j] + t0 indexes in Zp the state gaps[j] steps before row t0 + r
    back = pad + np.arange(_BLOCK)[:, None] - gaps
    cycle_step = CYCLE_MIN_STEP_FACTOR * opts.conv_tol
    # an underflowed state has an L1 norm below this, so only such rows are tested
    tiny_l1 = 2 * spec.dim * UNDERFLOW_OMEGA

    last = 0  # index of the last state of the orbit
    quiet = 0  # consecutive small steps
    final_l1 = None
    kind, period = None, None
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(1, opts.max_steps + 1, _BLOCK):
            end = min(t0 + _BLOCK, opts.max_steps + 1)
            stop = _step_rows(Z, t0, end, spec, normalize)
            m = stop - t0
            if m:
                rows = Z[t0:stop]
                l1 = np.abs(rows).sum(axis=1).tolist()
                steps = np.abs(rows - Z[t0 - 1 : stop - 1]).sum(axis=1).tolist()
                if any(step >= cycle_step for step in steps):
                    hit = np.abs(Zp[back[:m] + t0] - rows[:, None]).sum(axis=2) < opts.conv_tol
                    returns = hit.any(axis=1).tolist()
                else:
                    returns = [False] * m
                if not normalize:
                    females = rows[:, :n].any(axis=1).tolist()
                    males = rows[:, n:].any(axis=1).tolist()
                for r in range(m):
                    if l1[r] == 0.0:
                        kind = "extinct"
                    elif l1[r] < tiny_l1 and _underflowed(rows[r], n):
                        kind = "numerically_extinct"
                    elif not normalize and not (females[r] and males[r]):
                        # one sex is missing: the next step sends the state to exactly zero
                        continue
                    else:
                        quiet = quiet + 1 if steps[r] < opts.conv_tol else 0
                        if quiet >= opts.patience:
                            kind = "converged"
                        elif steps[r] >= cycle_step and returns[r]:
                            # a slowly converging orbit revisits its own
                            # neighborhood, so only a large step counts
                            kind, period = "cycle", int(gaps[hit[r].argmax()])
                        elif l1[r] > opts.div_threshold:
                            kind = "divergent"
                    if kind:
                        last, final_l1 = t0 + r, steps[r]
                        break
                if kind:
                    break
                last, final_l1 = stop - 1, steps[-1]
            if stop < end:
                kind = "absorbed"
                break

    Z = Z[: last + 1].copy()  # the states keep only the rows the orbit used
    Z.setflags(write=False)
    states = [z0] + [Element._view(x, y) for x, y in zip(Z[1:, :n], Z[1:, n:])]
    outcome = Outcome(
        kind or "max_iterations",
        step=last,
        point=states[-1] if kind == "converged" else None,
        period=period,
        representatives=tuple(states[-period:]) if kind == "cycle" else (),
        final_step_l1=final_l1,
    )
    return Trajectory(states, _row_omegas(Z, n).tolist(), outcome, operator)


@dataclass
class BoundReport:
    all_pass: bool
    first_violation: dict | None = None
    checked_steps: int = 0


def _log_or_none(v: float):
    # subnormal values have lost mantissa bits; treat them as underflowed zero
    return np.log(v) if v > UNDERFLOW_OMEGA else None


def verify_omega_bounds(z0: State, spec: AlgebraSpec, t_max: int) -> BoundReport:
    """Check the growth/decay envelopes of the coordinate-sum sequence s(t).

    With m = min over rows of sqrt(gamma_ip gamma~_ip) and M = max over
    row pairs of gamma_ip gamma~_pq (the largest of the four products of
    the extreme female and male row sums, equal to the maximum over all
    pairs since rounding is monotone), the checks for 0 <= t <= t_max are:

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
    space to dodge overflow of the doubling exponents.  The orbit comes
    from the stepper iterate uses.  Requires a stochastic algebra and a
    non-negative z0.
    """
    if not spec.is_stochastic():
        raise NotStochastic("omega bounds require a stochastic algebra")
    g = spec.female_row_sums()
    gt = spec.male_row_sums()
    min_sqrt = float(np.sqrt(g * gt).min())
    # rounding is monotone, so the largest product of a female and a male
    # row sum is one of the four products of their extremes
    max_cross = float(max(a * b for a in (g.min(), g.max()) for b in (gt.min(), gt.max())))
    oms = _row_omegas(_orbit(z0, spec, max(t_max, 0), normalize=False), spec.n).tolist()

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
    the corresponding gamma[:, :, k] slab, and analogously for males: one
    comparison of the whole orbit with the column extremes of the kernel.
    """
    if not spec.is_stochastic():
        raise NotStochastic("coordinate bounds require a stochastic algebra")
    tol = 1e-12
    lo = spec.kernel.min(axis=0) - tol
    hi = spec.kernel.max(axis=0) + tol
    report = BoundReport(all_pass=True, checked_steps=t_max)
    # raises AbsorbedToO if the orbit hits the boundary set
    Z = _orbit(z0, spec, max(t_max, 0), normalize=True)
    bad = np.flatnonzero(~((Z[1:] >= lo) & (Z[1:] <= hi)).all(axis=1))
    if len(bad):
        t = int(bad[0]) + 1
        report.all_pass = False
        report.first_violation = {"t": t, "bound": "coordinate", "state": Z[t].tolist()}
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
