"""Command-line interface.

Subcommands: validate, simulate, fixed-points, identities, predict, and
scenario.  Exit codes: 0 on success, 1 on a domain-level failure (constraint
violation, starting in the absorbing set, cross-check mismatch), 2 on
unreadable or malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import fixed_points as fpmod
from . import scenarios as scmod
from .algebra import AlgebraSpec, Element, random_stochastic, validate
from .dynamics import IterationOptions, apply_V, apply_W, iterate
from .errors import AbsorbedToO, GonosimError
from .identities import check_identities

SCENARIO_FLAGS = ("gamma", "mu", "eta", "gamma1", "gamma2", "delta1", "delta2")


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_algebra(path: str) -> AlgebraSpec:
    with open(path) as fh:
        return AlgebraSpec.from_dict(json.load(fh))


def _scenario_from_args(args) -> scmod.Scenario:
    params = {}
    for flag in SCENARIO_FLAGS:
        v = getattr(args, flag, None)
        if v is not None:
            params[flag] = v
    return scmod.Scenario(args.scenario, params)


def _resolve_spec(args) -> AlgebraSpec:
    sources = [
        getattr(args, "algebra", None) is not None,
        getattr(args, "scenario", None) is not None,
        getattr(args, "random", None) is not None,
    ]
    if sum(sources) != 1:
        raise ValueError("provide exactly one of --algebra, --scenario, --random")
    if getattr(args, "algebra", None):
        return _load_algebra(args.algebra)
    if getattr(args, "scenario", None):
        return scmod.build_algebra(_scenario_from_args(args))
    n, nu = (int(v) for v in args.random.split(","))
    return random_stochastic(n, nu, args.seed)


def _initial_state(args, spec: AlgebraSpec) -> Element:
    if args.init is not None:
        vals = np.array([float(v) for v in args.init.split(",")])
        if vals.shape != (spec.dim,):
            raise ValueError(
                f"initial state has {vals.shape[0]} components, algebra needs {spec.dim}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"initial state {args.init!r} has a non-finite component")
        return Element.from_vector(vals, spec.n)
    rng = np.random.default_rng(args.seed)
    return Element.from_vector(rng.dirichlet(np.ones(spec.dim)), spec.n)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_validate(args) -> int:
    try:
        spec = _load_algebra(args.path)
    except (OSError, json.JSONDecodeError, GonosimError) as exc:
        return _fail(2, f"cannot read algebra: {exc}")
    report = validate(spec)
    payload = {
        "is_gonosomal": report.is_gonosomal,
        "is_stochastic": report.is_stochastic,
        "violations": report.violations,
    }
    _emit(payload, args.out)
    return 0 if report.is_gonosomal else 1


def cmd_simulate(args) -> int:
    try:
        spec = _resolve_spec(args)
        z0 = _initial_state(args, spec)
    except (OSError, json.JSONDecodeError, ValueError, GonosimError) as exc:
        return _fail(2, f"bad input: {exc}")
    opts = IterationOptions(
        conv_tol=args.tol, max_steps=args.steps, max_period=args.max_period
    )
    if args.operator == "V":
        try:
            apply_V(z0, spec)
        except AbsorbedToO:
            return _fail(
                1,
                "initial state lies in the absorbing set (one sex has total weight zero); "
                "the normalized operator is undefined there",
            )
    try:
        traj = iterate(z0, spec, operator=args.operator, opts=opts)
    except ValueError as exc:
        return _fail(2, f"bad input: {exc}")
    out = args.out or f"trajectory.{args.format}"
    if args.format == "csv":
        traj.to_csv(out)
    else:
        traj.to_json(out)
    print(f"{traj.outcome.describe()} -> {out}")
    return 0


def cmd_fixed_points(args) -> int:
    try:
        spec = _resolve_spec(args)
    except (OSError, json.JSONDecodeError, ValueError, GonosimError) as exc:
        return _fail(2, f"bad input: {exc}")
    numeric = fpmod.solve_fixed_points_numeric(spec, operator=args.operator, seed=args.seed)
    payload = {"records": [r.to_dict() for r in numeric]}

    closed = None
    if getattr(args, "scenario", None):
        s = _scenario_from_args(args)
        try:
            if s.name in ("lr_lethal", "lr_mutation"):
                gamma = float(spec.gamma[0, 0, 0])
                closed = fpmod.closed_form_fixed_points_type11(gamma)
            elif s.name == "recessive_lethal":
                p = s.params
                closed = fpmod.closed_form_fixed_points_type21(
                    p["gamma1"], p["gamma2"], p["delta1"], p["delta2"]
                )
            elif s.name == "hemophilia":
                closed = fpmod.closed_form_fixed_points_hemophilia(
                    s.params["mu"], s.params["eta"]
                )
        except GonosimError:
            closed = None

    if closed is not None and args.operator == "W":
        payload["closed_form"] = [r.to_dict() for r in closed]
        max_mismatch = 0.0
        for rec in closed:
            if rec.family is not None:
                continue
            dists = [
                float(np.abs(rec.point.vector - nrec.point.vector).sum())
                for nrec in numeric
                if nrec.family is None
            ]
            fam_hits = [
                f.family.contains(rec.point.vector)
                for f in numeric
                if f.family is not None
            ]
            best = min(dists) if dists else float("inf")
            if any(fam_hits):
                best = 0.0
            max_mismatch = max(max_mismatch, best)
        payload["cross_check"] = {"max_mismatch": max_mismatch, "pass": max_mismatch <= 1e-6}
        _emit(payload, args.out)
        if max_mismatch > 1e-6:
            return _fail(1, f"closed-form vs numeric mismatch {max_mismatch:.3e}")
        return 0
    _emit(payload, args.out)
    return 0


def cmd_identities(args) -> int:
    try:
        spec = _load_algebra(args.path)
    except (OSError, json.JSONDecodeError, GonosimError) as exc:
        return _fail(2, f"cannot read algebra: {exc}")
    try:
        report = check_identities(spec, samples=args.samples, seed=args.seed)
    except ValueError as exc:
        return _fail(2, str(exc))
    _emit(report.to_dict(), args.out)
    return 0


def cmd_predict(args) -> int:
    try:
        s = _scenario_from_args(args)
        spec = scmod.build_algebra(s)
        z0 = _initial_state(args, spec)
    except (ValueError, GonosimError) as exc:
        return _fail(2, f"bad input: {exc}")

    payload: dict = {"scenario": s.name, "params": s.params}
    try:
        if s.name == "recessive_lethal":
            cls = scmod.classify_eset(z0, s)
            pred = scmod.predict_limit_type21(z0, s)
            payload["eset"] = {"kind": cls.kind, "t0": cls.t0}
            payload["prediction"] = pred.to_dict()
            agree, detail = _verify_type21(z0, spec, pred, args)
        elif s.name == "hemophilia":
            pred = scmod.hemophilia_degenerate_limits(z0, s.params["mu"], s.params["eta"])
            payload["prediction"] = pred.to_dict()
            agree, detail = _verify_hemophilia(z0, spec, pred)
        elif s.name in ("lr_lethal", "lr_mutation"):
            gamma = float(spec.gamma[0, 0, 0])
            thr = 1.0 / (gamma * (1.0 - gamma))
            prod = abs(float(z0.x[0] * z0.y[0]))
            w_limit, boundary = scmod._trichotomy(prod, thr)
            payload["prediction"] = {
                "threshold": thr,
                "product": prod,
                "w_limit": w_limit,
                "boundary": boundary,
            }
            agree, detail = _verify_type11(z0, spec, gamma, w_limit, boundary)
        else:
            return _fail(2, f"predict does not support scenario {s.name!r}")
    except GonosimError as exc:
        return _fail(1, f"prediction failed: {exc}")

    payload["verification"] = detail
    payload["agreement"] = agree
    _emit(payload, args.out)
    return 0 if agree else _fail(1, "prediction and iteration disagree")


def _verify_type11(z0, spec, gamma, w_limit, boundary):
    if boundary:
        z6 = scmod.closed_form_trajectory_type11(z0, gamma, 6)
        err = float(np.abs(z6.vector - z0.vector).sum())
        return err < 1e-6, {"method": "closed_form", "error": err}
    return _verify_w_limit(z0, spec, w_limit)


def _verify_w_limit(z0, spec, w_limit, fixed_point=None):
    """Iterate W and test the predicted limit: zero, infinity, or the fixed point."""
    traj = iterate(z0, spec, operator="W")
    kind = traj.outcome.kind
    if w_limit == "infinity":
        ok = kind == "divergent"
    elif kind == "converged":
        target = np.zeros(spec.dim) if w_limit == "zero" else np.asarray(fixed_point)
        ok = float(np.abs(traj.outcome.point.vector - target).sum()) < 1e-6
    else:
        ok = w_limit == "zero" and kind in ("extinct", "numerically_extinct")
    return ok, {"method": "iteration", "outcome": kind}


def _verify_type21(z0, spec, pred, args):
    if pred.boundary:
        return True, {"method": "boundary_not_iterated"}
    traj = iterate(z0, spec, operator="V")
    if pred.v_period2 is not None:
        if traj.outcome.kind != "cycle" or traj.outcome.period != 2:
            return False, {"method": "iteration", "outcome": traj.outcome.kind}
        reps = [r.vector for r in traj.outcome.representatives]
        errs = []
        for target in (np.array(pred.v_period2[0]), np.array(pred.v_period2[1])):
            errs.append(min(float(np.abs(target - r).sum()) for r in reps))
        return max(errs) < 1e-6, {"method": "iteration", "cycle_error": max(errs)}
    if traj.outcome.kind != "converged":
        return False, {"method": "iteration", "outcome": traj.outcome.kind}
    err = float(np.abs(traj.outcome.point.vector - np.array(pred.v_limit)).sum())
    return err < 1e-6, {"method": "iteration", "limit_error": err}


def _verify_hemophilia(z0, spec, pred):
    if pred.kind == "extinction":
        z = z0
        for _ in range(pred.extinction_step):
            z = apply_W(z, spec)
        ok = bool(np.all(z.vector == 0.0))
        return ok, {"method": "exact_iteration", "steps": pred.extinction_step}
    traj = iterate(z0, spec, operator="V")
    if traj.outcome.kind not in ("converged", "max_iterations"):
        return False, {"method": "iteration", "outcome": traj.outcome.kind}
    err = float(np.abs(traj.states[-1].vector - np.array(pred.v_constant)).sum())
    w_ok, w_detail = _verify_w_limit(z0, spec, pred.w_limit, pred.fixed_point)
    detail = {"method": "iteration", "constancy_error": err, "w_outcome": w_detail["outcome"]}
    return err < 1e-6 and w_ok, detail


def cmd_scenario(args) -> int:
    if args.action != "list":
        return _fail(2, f"unknown scenario action {args.action!r}")
    for name in sorted(scmod.SCENARIO_PARAMS):
        params = ", ".join(scmod.SCENARIO_PARAMS[name])
        print(f"{name}: params [{params}] - {scmod.SCENARIO_DESCRIPTIONS[name]}")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output path (default: stdout or trajectory.<fmt>)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-period", type=int, default=8)


def _add_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algebra", help="path to an algebra JSON file")
    p.add_argument("--scenario", help="scenario name (see: scenario list)")
    p.add_argument("--random", help="n,nu for a random stochastic algebra")
    for flag in SCENARIO_FLAGS:
        p.add_argument(f"--{flag}", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gonosim",
        description="Simulate and analyze sex-linked inheritance dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the defining constraints of an algebra file")
    p.add_argument("path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="iterate an operator and export the trajectory")
    _add_source(p)
    p.add_argument("--operator", choices=("W", "V"), default="W")
    p.add_argument("--init", help="comma-separated initial state")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fixed-points", help="solve for fixed points and stability")
    _add_source(p)
    p.add_argument("--operator", choices=("W", "V"), default="W")
    _add_common(p)
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("identities", help="search for algebra-identity violations")
    p.add_argument("path")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("predict", help="closed-form limit prediction with verification")
    _add_source(p)
    p.add_argument("--init", help="comma-separated initial state")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("scenario", help="scenario utilities")
    p.add_argument("action", choices=("list",))
    p.set_defaults(func=cmd_scenario)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except GonosimError as exc:
        return _fail(1, str(exc))


if __name__ == "__main__":
    sys.exit(main())
