"""Command-line interface.

Subcommands: validate, simulate, fixed-points, identities, predict, and
scenario.  Exit codes: 0 on success, 1 on a domain-level failure (constraint
violation, starting in the absorbing set, cross-check mismatch), 2 on
unreadable or malformed input or an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import fixed_points as fpmod
from . import scenarios as scmod
from .algebra import AlgebraSpec, Element, _admit, json_line, random_stochastic, validate, write_text
from .dynamics import IterationOptions, _finite_start, iterate
from .errors import GonosimError
from .identities import check_identities

# every scenario parameter once, in the order the scenario table names them
SCENARIO_FLAGS = tuple(dict.fromkeys(p for e in scmod.SCENARIOS.values() for p in e.params))


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


class _Unwritable(Exception):
    """An output path could not be written; main exits 2 with this message."""


def _write(write, path, *args) -> None:
    """write(path, *args), with an OSError raised as _Unwritable naming path."""
    try:
        write(path, *args)
    except OSError as exc:
        raise _Unwritable(f"cannot write {path}: {exc.strerror or exc}") from None


def _scenario_from_args(args) -> scmod.Scenario:
    params = {flag: getattr(args, flag) for flag in SCENARIO_FLAGS if getattr(args, flag) is not None}
    return scmod.Scenario(args.scenario, params)


def _resolve_spec(args) -> AlgebraSpec:
    if [args.algebra, args.scenario, args.random].count(None) != 2:
        raise ValueError("provide exactly one of --algebra, --scenario, --random")
    if args.algebra is not None:
        return AlgebraSpec.load(args.algebra)
    if args.scenario is not None:
        return scmod.build_algebra(_scenario_from_args(args))
    n, nu = (int(v) for v in args.random.split(","))
    return random_stochastic(n, nu, args.seed)


def _initial_state(args, spec: AlgebraSpec) -> Element:
    if args.init is not None:
        z0 = Element.from_vector([float(v) for v in args.init.split(",")], spec.n)
        _admit(spec, z0)
        _finite_start(z0)
        return z0
    rng = np.random.default_rng(args.seed)
    return Element.from_vector(rng.dirichlet(np.ones(spec.dim)), spec.n)


def _emit(payload: dict, out: str | None) -> None:
    text = json_line(payload)
    if out:
        _write(write_text, out, text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    try:
        spec = AlgebraSpec.load(args.path)
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
    try:
        traj = iterate(z0, spec, operator=args.operator, opts=opts)
    except ValueError as exc:
        return _fail(2, f"bad input: {exc}")
    if traj.outcome.kind == "absorbed" and traj.outcome.step == 0:
        return _fail(
            1,
            "initial state lies in the absorbing set (one sex has total weight zero); "
            "the normalized operator is undefined there",
        )
    out = args.out or f"trajectory.{args.format}"
    _write(traj.to_csv if args.format == "csv" else traj.to_json, out)
    print(f"{traj.outcome.describe()} -> {out}")
    return 0


def cmd_fixed_points(args) -> int:
    try:
        spec = _resolve_spec(args)
    except (OSError, json.JSONDecodeError, ValueError, GonosimError) as exc:
        return _fail(2, f"bad input: {exc}")
    try:
        numeric = fpmod.solve_fixed_points_numeric(spec, operator=args.operator, seed=args.seed)
    except ValueError as exc:
        return _fail(2, f"bad input: {exc}")
    payload = {"records": [r.to_dict() for r in numeric]}

    closed = None
    if args.scenario is not None and args.operator == "W":
        s = _scenario_from_args(args)
        try:
            closed = fpmod.closed_form_records(*scmod.SCENARIOS[s.name].closed_form(s, spec), spec)
        except GonosimError:
            pass  # no closed form at these parameters

    # the numeric search may miss roots: every closed-form point must be fixed, and every
    # numeric root (both ends of a numeric line) a closed-form point or on its line
    fixed, max_mismatch = True, 0.0
    if closed is not None:
        payload["closed_form"] = [r.to_dict() for r in closed]
        fixed = all(r.residual <= fpmod.RESIDUAL_TOL * max(1.0, np.abs(r.point.vector).max()) for r in closed)
        points = [r.point.vector for r in closed]
        families = [r.family for r in closed if r.family is not None]
        for r in numeric:
            v = r.point.vector
            for u in (v,) if r.family is None else (v, v + r.family.direction):
                if not any(f.contains(u) for f in families):
                    max_mismatch = max(max_mismatch, min(float(np.abs(u - p).sum()) for p in points))
        payload["cross_check"] = {"max_mismatch": max_mismatch, "pass": fixed and max_mismatch <= scmod.AGREEMENT_TOL}
    _emit(payload, args.out)
    if not fixed:
        return _fail(1, "a closed-form point is not fixed")
    if max_mismatch > scmod.AGREEMENT_TOL:
        return _fail(1, f"numeric root outside the closed form: distance {max_mismatch:.3e}")
    return 0


def cmd_identities(args) -> int:
    try:
        spec = AlgebraSpec.load(args.path)
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
        payload.update(scmod.SCENARIOS[s.name].predict(z0, spec, s))
        agree, detail = scmod.verify_prediction(z0, spec, payload["prediction"])
    except ValueError as exc:  # a state the prediction does not admit, such as a negative one
        return _fail(2, f"bad input: {exc}")
    except GonosimError as exc:
        return _fail(1, f"prediction failed: {exc}")

    payload["verification"] = detail
    payload["agreement"] = agree
    _emit(payload, args.out)
    return 0 if agree else _fail(1, "prediction and iteration disagree")


def cmd_scenario(args) -> int:
    for name, entry in sorted(scmod.SCENARIOS.items()):
        print(f"{name}: params [{', '.join(entry.params)}] - {entry.description}")
    return 0


def _add_source(p: argparse.ArgumentParser, any_algebra: bool = True) -> None:
    """--scenario with its flags, --algebra and --random if any_algebra, --out and --seed."""
    if any_algebra:
        p.add_argument("--algebra", help="path to an algebra JSON file")
        p.add_argument("--random", help="n,nu for a random stochastic algebra")
    p.add_argument("--scenario", help="scenario name (see: scenario list)")
    for flag in SCENARIO_FLAGS:
        p.add_argument(f"--{flag}", type=float, default=None)
    p.add_argument("--out", help="output path (default: stdout or trajectory.<fmt>)")
    p.add_argument("--seed", type=int, default=0)


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
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--steps", type=int, default=IterationOptions.max_steps)
    p.add_argument("--tol", type=float, default=IterationOptions.conv_tol)
    p.add_argument("--max-period", type=int, default=IterationOptions.max_period)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fixed-points", help="solve for fixed points and stability")
    _add_source(p)
    p.add_argument("--operator", choices=("W", "V"), default="W")
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("identities", help="search for algebra-identity violations")
    p.add_argument("path")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("predict", help="closed-form limit prediction with verification")
    _add_source(p, any_algebra=False)
    p.add_argument("--init", help="comma-separated initial state")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("scenario", help="scenario utilities")
    p.add_argument("action", choices=("list",))
    p.set_defaults(func=cmd_scenario)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    return build_parser()


def _parse(argv) -> argparse.Namespace:
    """The arguments of argv (sys.argv[1:] if None), parsed once.

    A known command word goes straight to its own parser, which is the
    parser the top-level pass would hand the rest of argv to; leftover
    strings are reported by the top-level parser, as its pass reports them.
    The top-level parser answers only an argv without a known command word:
    none, -h/--help, or an unknown word.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return args.func(args)
    except GonosimError as exc:
        return _fail(1, str(exc))
    except _Unwritable as exc:
        return _fail(2, str(exc))


if __name__ == "__main__":
    sys.exit(main())
