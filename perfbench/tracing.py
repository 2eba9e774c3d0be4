"""Span tracing by patching wrappers around the package's public functions.

A wrapper records one span per call: name, start, end, parent span and the
id of the benchmark item being run.  Spans live in flat in-memory arrays
and are written out once, when the traced run ends.  Self time is a span's
duration minus the durations of its direct children; calls are nested and
single-threaded, so the children never overlap.

The wrappers are installed into every module namespace that binds the
original object (``gonosim.fixed_points`` imports ``apply_W`` from
``dynamics``, ``gonosim/__init__`` re-exports everything), so a call is
traced whichever name it goes through.  The untraced run never patches.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (module, attribute) pairs; an attribute "Class.method" patches the class.
WRAPPED = (
    ("algebra", "AlgebraSpec.is_stochastic"),
    ("algebra", "multiply"),
    ("dynamics", "apply_W"),
    ("dynamics", "apply_V"),
    ("dynamics", "iterate"),
    ("dynamics", "verify_omega_bounds"),
    ("dynamics", "verify_coordinate_bounds"),
    ("dynamics", "Trajectory.to_csv"),
    ("dynamics", "Trajectory.to_json"),
    ("identities", "check_identities"),
    ("fixed_points", "solve_fixed_points_numeric"),
    ("fixed_points", "jacobian_W"),
    ("fixed_points", "jacobian_V"),
    ("fixed_points", "make_record"),
    ("fixed_points", "stability_transfer_check"),
    ("fixed_points", "idempotent_correspondence"),
    ("fixed_points", "closed_form_fixed_points_type11"),
    ("fixed_points", "closed_form_fixed_points_type21"),
    ("fixed_points", "closed_form_fixed_points_hemophilia"),
    ("scenarios", "build_algebra"),
    ("scenarios", "classify_eset"),
    ("scenarios", "predict_limit_type21"),
    ("scenarios", "hemophilia_degenerate_limits"),
    ("scenarios", "closed_form_trajectory_type11"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in WRAPPED)

# Kernel flop counts per call, computed from the algebra type (not measured):
# the outer product(s), then one multiply-add per structure constant.
KERNEL_SPEC_ARG = {"dynamics.apply_W": 1, "dynamics.apply_V": 1, "algebra.multiply": 2}


def kernel_flops(name: str, n: int, nu: int) -> int:
    dim = n + nu
    if name == "dynamics.apply_W":
        return n * nu + 2 * n * nu * dim
    if name == "algebra.multiply":
        return 3 * n * nu + 2 * n * nu * dim
    return 2 * dim  # apply_V: the sum and the division; its W step is its own span


def _resolve(mod, attr):
    owner = mod
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def package_modules() -> list:
    """The loaded gonosim modules."""
    return [m for name, m in sys.modules.items() if name == "gonosim" or name.startswith("gonosim.")]


def patch(replacements: dict, modules) -> list:
    """Replace original objects with new ones in every module namespace.

    ``replacements`` maps ``id(original)`` to ``(original, replacement)``;
    class attributes must be patched by the caller.  Returns an undo list
    for ``unpatch``.
    """
    undo = []
    for mod in modules:
        ns = vars(mod)
        for key, value in list(ns.items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((ns, key, value))
                ns[key] = hit[1]
    return undo


def unpatch(undo: list) -> None:
    for ns, key, value in reversed(undo):
        ns[key] = value


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.start = array("q")
        self.end = array("q")
        self.name_id = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.current_item = -1
        self.counters = {
            "dynamics.iterate.steps": 0,
            "fixed_points.newton.starts": 0,
            "fixed_points.newton.converged": 0,
            "cli.bytes_written": 0,
            "kernel.flops_computed": 0,
        }
        self._stack = [-1]
        self._undo = []
        self._class_undo = []

    # -- wrappers ---------------------------------------------------------

    def _wrapper(self, name: str, fn):
        nid = self.names.index(name)
        start, end, name_id, parent, item = self.start, self.end, self.name_id, self.parent, self.item
        stack = self._stack
        clock = time.perf_counter_ns
        after = self._after_hook(name)

        def traced(*args, **kwargs):
            span = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            item.append(self.current_item)
            start.append(0)
            end.append(0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[span] = t0
                end[span] = t1
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _after_hook(self, name: str):
        c = self.counters
        if name in KERNEL_SPEC_ARG:
            pos = KERNEL_SPEC_ARG[name]

            def count_flops(args, result):
                spec = args[pos]
                c["kernel.flops_computed"] += kernel_flops(name, spec.n, spec.nu)

            return count_flops
        if name == "dynamics.iterate":

            def count_steps(args, traj):
                c["dynamics.iterate.steps"] += len(traj.states) - 1

            return count_steps
        if name == "fixed_points.solve_fixed_points_numeric":

            def count_newton(args, records):
                # every record of one search carries the same diagnostics
                diag = getattr(records[0], "diagnostics", None) if records else None
                if diag:
                    c["fixed_points.newton.starts"] += diag["attempted"]
                    c["fixed_points.newton.converged"] += diag["converged"]

            return count_newton
        return None

    def install(self) -> None:
        replacements = {}
        for mod_name, attr in WRAPPED:
            mod = importlib.import_module(f"gonosim.{mod_name}")
            owner, leaf = _resolve(mod, attr)
            original = vars(owner)[leaf]
            wrapped = self._wrapper(f"{mod_name}.{attr}", original)
            if isinstance(owner, type):
                self._class_undo.append((owner, leaf, original))
                setattr(owner, leaf, wrapped)
            else:
                replacements[id(original)] = (original, wrapped)
        self._undo = patch(replacements, package_modules())

    def uninstall(self) -> None:
        unpatch(self._undo)
        for owner, leaf, original in reversed(self._class_undo):
            setattr(owner, leaf, original)
        self._undo, self._class_undo = [], []

    # -- results ----------------------------------------------------------

    def span_arrays(self) -> dict:
        # copies, so that the arrays stay appendable
        return {
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "item": np.array(self.item, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.span_arrays())

    def layer_metrics(self) -> tuple[dict, float]:
        """Per-function calls, total and self time, plus the derived counts.

        Also returns the summed self time of top-level spans in ms.
        """
        s = self.span_arrays()
        dur = (s["end_ns"] - s["start_ns"]).astype(float)
        nested = s["parent"] >= 0
        child = np.bincount(s["parent"][nested], weights=dur[nested], minlength=len(dur))
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(s["name_id"], minlength=k)
        total = np.bincount(s["name_id"], weights=dur, minlength=k) / 1e6
        selfms = np.bincount(s["name_id"], weights=self_ns, minlength=k) / 1e6
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.total_ms"] = (float(total[i]), "ms")
            out[f"{name}.self_ms"] = (float(selfms[i]), "ms")
        c = self.counters
        steps = c["dynamics.iterate.steps"]
        out["dynamics.iterate.steps"] = (steps, "count")
        iterate_ms = out["dynamics.iterate.total_ms"][0]
        out["dynamics.iterate.us_per_step"] = (iterate_ms * 1e3 / steps if steps else 0.0, "us")
        starts = c["fixed_points.newton.starts"]
        out["fixed_points.newton.starts"] = (starts, "count")
        out["fixed_points.newton.converged"] = (c["fixed_points.newton.converged"], "count")
        ratio = c["fixed_points.newton.converged"] / starts if starts else 0.0
        out["fixed_points.newton.converged_ratio"] = (ratio, "ratio")
        out["cli.bytes_written"] = (c["cli.bytes_written"], "bytes")
        flops = c["kernel.flops_computed"]
        kernel_self_ms = sum(out[f"{n}.self_ms"][0] for n in KERNEL_SPEC_ARG)
        out["kernel.flops_computed"] = (flops, "count")
        out["kernel.gflops_achieved"] = (
            flops / (kernel_self_ms * 1e6) if kernel_self_ms else 0.0,
            "GFLOP/s",
        )
        top_self_ms = float(self_ns[~nested].sum() / 1e6)
        return out, top_self_ms
