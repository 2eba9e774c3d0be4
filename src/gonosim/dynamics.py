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

from .algebra import SINGULAR_DET_TOL, AlgebraSpec, Element, State, _admit, _frozen, _row_omegas, json_line, write_text
from .errors import AbsorbedToO, ShapeMismatch, SingularMap

UNDERFLOW_OMEGA = 1e-300
# relative slack for the rounding of s(t): on the log of each mass envelope and in the monotone test
BOUND_SLACK = 1e-9
# s(t) does not increase once s(0) <= 4; the margin admits a start that sums to 4 up to rounding
MONOTONE_MASS = 4.0 + 1e-12
# absolute slack of the monotone test, for a mass decayed to rounding size
MONOTONE_ABS_SLACK = 1e-15
# a zero mass fails a lower envelope only above this: a smaller bound may be a rounded zero
ZERO_LOWER_BOUND = 1e-290
# the last step whose doubling exponents 2^(t-1) and 4^floor(t/2) are finite floats
MAX_BOUND_STEPS = 1023
# a V coordinate is a convex combination of its kernel column, up to rounding
COORDINATE_TOL = 1e-12
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
        n, nu = self.states[0]._type()
        header = (
            ["t"]
            + [f"x{i + 1}" for i in range(n)]
            + [f"y{j + 1}" for j in range(nu)]
            + ["omega"]
        )
        rows = np.empty((len(self.states), n + nu + 2))
        rows[:, 0] = np.arange(len(rows))
        rows[:, 1:-1] = [s.vector for s in self.states]
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
    _admit(spec, z0)
    Z = np.empty((steps + 1, spec.dim))
    Z[0] = z0.vector
    if _step_rows(Z, 1, steps + 1, spec, normalize) <= steps:
        raise AbsorbedToO()
    return Z


def apply_W(z: State, spec: AlgebraSpec) -> State:
    """One generation of absolute proportions: half the algebra square of z."""
    return Element._wrap(_frozen(_orbit(z, spec, 1, normalize=False))[1], spec.n)


def apply_V(z: State, spec: AlgebraSpec) -> State:
    """Frequency-distribution step: W(z) normalized to unit coordinate sum."""
    _admit(spec, stochastic=True)
    return Element._wrap(_frozen(_orbit(z, spec, 1, normalize=True))[1], spec.n)


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
    _admit(spec, z, stochastic=True)
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
    _admit(spec, z0, operator=operator)
    if not np.isfinite(z0.vector).all():
        raise ValueError("initial state has a non-finite coordinate")
    if not spec.is_finite():
        raise ValueError("algebra has a non-finite structure constant")
    # after the finiteness tests, so a non-finite algebra raises ValueError
    _admit(spec, stochastic=operator == "V")
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

    Z = _frozen(Z[: last + 1].copy())  # the states keep only the rows the orbit used
    states = [z0] + [Element._wrap(z, n) for z in Z[1:]]
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
    admits no two-sided comparison with s(0)^2.  At t = 1 every envelope
    compares s(1) with itself, so only the monotone test can fail there.

    Comparisons run in log space to dodge overflow of the doubling
    exponents.  A mass at or below UNDERFLOW_OMEGA (subnormal, zero,
    negative or NaN) has log 0 = -inf, and a zero factor makes an envelope
    zero even when the other factor overflowed.  A zero s(t) fails a lower
    envelope only above ZERO_LOWER_BOUND.  The report holds the first
    violation in (t, bound) order.  The orbit comes from the stepper
    iterate uses.  Requires a stochastic algebra, a non-negative z0 and
    0 <= t_max <= MAX_BOUND_STEPS (else ValueError).
    """
    if not 0 <= t_max <= MAX_BOUND_STEPS:
        raise ValueError(f"t_max must be between 0 and {MAX_BOUND_STEPS}, got {t_max}")
    _admit(spec, stochastic=True)
    g = spec.female_row_sums()
    gt = spec.male_row_sums()
    min_sqrt = float(np.sqrt(g * gt).min())
    # rounding is monotone, so the largest product of a female and a male
    # row sum is one of the four products of their extremes
    max_cross = float(max(a * b for a in (g.min(), g.max()) for b in (gt.min(), gt.max())))
    with np.errstate(over="ignore", invalid="ignore"):
        oms = _row_omegas(_orbit(z0, spec, t_max, normalize=False), spec.n).tolist()
    log_m, log_M, log_M16, *logs = (
        float(np.log(v)) if v > UNDERFLOW_OMEGA else -math.inf
        for v in (min_sqrt, max_cross, max_cross / 16.0, *oms)
    )

    monotone = oms[0] <= MONOTONE_MASS
    for t in range(1, t_max + 1):
        s, log_s = oms[t], logs[t]
        if monotone and s > oms[t - 1] * (1 + BOUND_SLACK) + MONOTONE_ABS_SLACK:
            return BoundReport(False, {"t": t, "bound": "monotone_decrease", "lhs": s, "rhs": oms[t - 1]}, t_max)
        if t == 1:
            continue
        e, four_h = 2.0 ** (t - 1), 4.0 ** (t // 2)
        refined = "refined_upper_odd" if t % 2 else "refined_upper_even"
        # (name, upper, log base, exponent, log anchor, anchor exponent), every exponent positive
        envelopes = (
            ("step_lower", False, log_m, 2.0, logs[t - 1], 2.0),
            ("step_upper", True, log_M, 1.0, logs[t - 1], 2.0),
            ("lower", False, log_m, 2.0 * (e - 1.0), logs[1], e),
            ("upper", True, log_M, e - 1.0, logs[1], e),
            (refined, True, log_M16, (four_h - 1.0) / 3.0, logs[t % 2], four_h),
        )
        for name, upper, log_base, p, log_anchor, q in envelopes:
            b = -math.inf if -math.inf in (log_base, log_anchor) else log_base * p + log_anchor * q
            if upper:
                bad = log_s > b + BOUND_SLACK
            else:
                bad = b > np.log(ZERO_LOWER_BOUND) if log_s == -math.inf else log_s < b - BOUND_SLACK
            if bad:
                lhs, rhs = (s if log_s > -math.inf else 0.0), float(np.exp(min(b, 700.0)))
                return BoundReport(False, {"t": t, "bound": name, "lhs": lhs, "rhs": rhs}, t_max)
    return BoundReport(True, None, t_max)


def verify_coordinate_bounds(z0: State, spec: AlgebraSpec, t_max: int) -> BoundReport:
    """Check the per-coordinate envelopes along the V orbit, for t >= 1.

    Each female coordinate of V^t(z0) must lie between the min and max of
    the corresponding gamma[:, :, k] slab, within COORDINATE_TOL, and
    analogously for males: one comparison of the whole orbit with the
    column extremes of the kernel.  Raises ValueError for t_max below 0.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be at least 0, got {t_max}")
    _admit(spec, stochastic=True)
    lo = spec.kernel.min(axis=0) - COORDINATE_TOL
    hi = spec.kernel.max(axis=0) + COORDINATE_TOL
    report = BoundReport(all_pass=True, checked_steps=t_max)
    # raises AbsorbedToO if the orbit hits the boundary set
    with np.errstate(over="ignore", invalid="ignore"):
        Z = _orbit(z0, spec, t_max, normalize=True)
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
    phi(ab) == phi(a) phi(b) on sampled pairs, within tol (L1); a gap that
    is not finite fails.  Each sample is a triple (z, a, b) with coordinates
    uniform in [-1, 1], all drawn at once; the images come from four row
    contractions, with overflow and invalid-value warnings off as in
    iterate, and the product ab is a @ L_b.  Raises ValueError for samples
    below 1, as check_identities does, and for a non-finite phi or structure
    constant before the determinant of phi is taken.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    phi = np.asarray(phi, dtype=float)
    d1 = spec1.dim
    if phi.shape != (spec2.dim, d1):
        raise ShapeMismatch("phi has the wrong shape for these algebras")
    if not (np.isfinite(phi).all() and spec1.is_finite() and spec2.is_finite()):
        raise ValueError("phi and the structure constants must be finite")
    if phi.shape[0] == phi.shape[1] and abs(np.linalg.det(phi)) < SINGULAR_DET_TOL:
        raise SingularMap("phi is numerically singular")

    def images(spec, U):
        """W(z) and ab for the sample rows U[:, k] = (z, a, b) of spec."""
        return spec._w_rows(U[:, 0]), (U[:, 1, None] @ spec._left_rows(U[:, 2]))[:, 0]

    S = np.random.default_rng(seed).uniform(-1, 1, (samples, 3, d1))
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = [np.abs(u @ phi.T - v).sum(axis=-1) for u, v in zip(images(spec1, S), images(spec2, S @ phi.T))]
    return all(bool((gap <= tol).all()) for gap in gaps)
