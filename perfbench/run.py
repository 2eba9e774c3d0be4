"""gonosim benchmark: one seeded, closed-loop workload per run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 60 --trace 0

One caller runs the workload's items back to back (a closed loop) for
``--seconds`` seconds, cycling over the item list, and every item's outputs
are checked (see workloads.py).  With ``--trace 0`` the end-to-end metrics
are reported; with ``--trace 1`` the run is repeated with span wrappers
installed and the per-layer metrics are reported instead.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The package is always imported from ``src/`` of the checkout
this file sits in; without it the benchmark exits non-zero and prints no
result.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools must be pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
# fresh interpreters started to time set-up; their median is setup_s
SETUP_PROBES = 5


def import_package():
    """Import gonosim from this checkout's src/, never from elsewhere."""
    pkg = SRC / "gonosim"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no gonosim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gonosim

    if Path(gonosim.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported gonosim from {gonosim.__file__}, not {pkg}")


class Runner:
    """Runs items, checks them and keeps each item's first signature."""

    def __init__(self, workload: str, ctx, items):
        import workloads

        _, self.run, self.check = workloads.WORKLOADS[workload]
        self.ctx = ctx
        self.items = items
        self.signatures = [None] * len(items)
        self.tracer = None  # set while a traced pass runs, to tag spans with the item
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _fail(self, index: int, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"item {index}: {what}")

    def one(self, index: int) -> float:
        """Run and check one item; returns the seconds spent in its timed calls."""
        slot = index % len(self.items)
        item = self.items[slot]
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.current_item = index
        t0 = time.perf_counter()
        try:
            out = self.run(item, self.ctx)
        except Exception:  # an item that raises is a failed item, not a crash
            elapsed = time.perf_counter() - t0
            self._fail(index, traceback.format_exc(limit=3))
            self._record(index, slot, "raised")
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            sig = json.dumps(self.check(item, self.ctx, out))
        except Exception as exc:
            self._fail(index, f"{type(exc).__name__}: {exc}")
            sig = f"failed: {exc}"
        self._record(index, slot, sig)
        return elapsed

    def _record(self, index: int, slot: int, sig: str) -> None:
        prev = self.signatures[slot]
        if prev is None:
            self.signatures[slot] = sig
        elif prev != sig:
            self._fail(index, f"outputs differ from the first run of item {slot}")

    def loop(self, seconds: float | None = None, count: int | None = None) -> list:
        """Closed loop from item 0, for a time budget (at least two items) or an item count.

        Returns the seconds of each run item, in order; item i is list slot
        i % len(items).
        """
        durations = []
        deadline = time.perf_counter() + seconds if seconds is not None else None
        i = 0
        while (deadline is None or i < 2 or time.perf_counter() < deadline) and (count is None or i < count):
            durations.append(self.one(i))
            i += 1
        return durations

    def best_latencies(self, durations: list) -> list:
        """Each reached item's fastest run; the loop cycles the list, so items repeat."""
        n = len(self.items)
        return [min(durations[slot::n]) for slot in range(min(n, len(durations)))]

    def complete(self) -> None:
        """Run items never reached, so that the digest covers the whole list."""
        for slot, sig in enumerate(self.signatures):
            if sig is None:
                self.one(slot)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.signatures).encode()).hexdigest()


def setup_probe_seconds(workload: str, seed: int) -> list:
    """Wall time from interpreter start to built inputs, in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit("error: set-up probe failed")
        times.append(elapsed)
    return times


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(runner: Runner, args) -> tuple[dict, bool]:
    durations = runner.loop(seconds=args.seconds)
    runner.complete()
    # the fastest of an item's repeats filters out time lost to other tenants
    # of a shared host, which swings the machine's speed by 20-40% in minutes
    best = runner.best_latencies(durations)
    ms = [d * 1e3 for d in best]
    metrics = {
        "items_per_s": metric(len(best) / sum(best), "1/s"),
        "item_p50_ms": metric(statistics.median(ms), "ms"),
        "item_p90_ms": metric(statistics.quantiles(ms, n=10)[-1], "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"timed items: {len(durations)}, distinct items {len(best)} (latency sample count), "
          f"{len(durations) / len(best):.1f} runs each")
    return metrics, True


def traced_run(runner: Runner, args) -> tuple[dict, bool]:
    import tracing
    import workloads

    # a third of the time untraced, then the same items traced, keeps the run short
    untraced = runner.loop(seconds=args.seconds / 3.0)
    tracer = tracing.Tracer()
    cli = runner.ctx if isinstance(runner.ctx, workloads.CliRunner) else None
    if cli is not None:
        cli.counters = tracer.counters
    tracer.install()
    runner.tracer = tracer
    try:
        traced = runner.loop(count=len(untraced))
    finally:
        runner.tracer = None
        tracer.uninstall()
        if cli is not None:
            cli.counters = None
    runner.complete()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")

    layers, top_self_ms = tracer.layer_metrics()
    traced_ms = sum(traced) * 1e3
    metrics = {name: metric(v, unit) for name, (v, unit) in layers.items()}
    metrics["trace.overhead_ratio"] = metric(sum(traced) / sum(untraced), "ratio")
    print(f"traced items: {len(traced)}, spans: {len(tracer.name_id)}, "
          f"top-level self {top_self_ms:.1f} ms of traced item time {traced_ms:.1f} ms")
    return metrics, top_self_ms <= traced_ms


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("orbits", "scenarios"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    make = workloads.WORKLOADS[args.workload][0]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    if args.setup_probe:
        make(args.seed, str(workdir))
        print("ready", flush=True)
        return 0

    setup = None if args.trace else setup_probe_seconds(args.workload, args.seed)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx, items = make(args.seed, str(workdir))
        runner = Runner(args.workload, ctx, items)
        metrics, spans_ok = (traced_run if args.trace else timed_run)(runner, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if setup is not None:
        metrics = {"setup_s": metric(statistics.median(setup), "s"), **metrics}

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"digest-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump([json.loads(s) if s[0] == "[" else s for s in runner.signatures], fh, indent=1)
    for err in runner.errors:
        print(f"FAILED {err}", file=sys.stderr)
    failed_ratio = runner.failed / runner.attempted
    print(f"digest {args.workload} seed={args.seed} items={len(runner.items)} sha256={runner.digest()}")
    print(f"failed_ratio {failed_ratio:.6g} ({runner.failed}/{runner.attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": runner.failed == 0 and spans_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
