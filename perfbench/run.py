"""geodescent benchmark: one workload per process, every operation checked.

    python3 perfbench/run.py --workload certify-batch --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from src/.
With --trace 0 the last line of standard output is a JSON object carrying the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run. Lines before it give the environment, the operation counts and
every metric by name with its unit. The untraced run's time metrics are in
"ref" units: an operation's time over that of a fixed reference loop timed
next to it (refloop.py), which takes out the machine's drifting speed; the
plain wall-clock figures are printed too, ungated. See perfbench/README.md.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # set-up is timed from here, before any heavy import

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback

import refloop
from reference import CheckFailed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

SETUP_RUNS = 9    # set-up is timed in this many fresh processes; the median is reported
MIN_OPS = 100     # untraced runs go on past --seconds until this many operations completed
END_TO_END = {"setup_s": "s", "ops_per_kref": "1/kref", "op_ref.p50": "ref", "op_ref.p90": "ref",
              "op_cpu_ref.p50": "ref", "samples_per_ref": "1/ref", "steps_per_ref": "1/ref",
              "peak_rss_mb": "MB"}
# plain wall-clock figures of the same operations: printed and recorded, not gated
WALL_CLOCK = {"ops_per_s": "1/s", "op_s.p50": "s", "op_s.p90": "s", "op_cpu_s.p50": "s",
              "samples_per_s": "1/s", "steps_per_s": "1/s", "refloop_ms.p50": "ms"}


def _import_program():
    """Import geodescent from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    try:
        import geodescent
    except ImportError as e:
        sys.exit(f"perfbench: cannot import geodescent from {SRC}: {e}")
    if os.path.dirname(os.path.dirname(os.path.abspath(geodescent.__file__))) != SRC:
        sys.exit(f"perfbench: geodescent was imported from {geodescent.__file__}, not from {SRC}")


def _setup(workload: str, seed: int, workdir: str):
    """Build the workload's inputs and run its warm-up pass; returns (warm-up ops, ops)."""
    import workloads

    warm_up, ops = workloads.build(workload, seed, workdir)
    for op in warm_up:
        try:
            op.check(op.call())
        except CheckFailed as e:
            raise SystemExit(f"perfbench: warm-up {op.key} failed its check: {e}")
    return warm_up, ops


class Stats:
    """What the operations of one measured phase took and whether they passed."""

    def __init__(self):
        self.wall, self.cpu = [], []
        self.ref_wall, self.ref_cpu = [], []  # the reference pass before each completed op
        self.seconds = self.samples = self.steps = 0.0
        self.attempted = self.failed = self.wrong = 0
        self.digests = {}

    @property
    def done(self) -> int:
        return self.attempted - self.failed


def _round(ops, st: Stats, tracer=None, reference: bool = False) -> None:
    """Run every op once, timing only the call into the program.

    With reference, one pass of the reference loop is timed right before each
    op. Each output is checked after its call, with the tracer paused so that
    the check is not counted, and must repeat the bytes of earlier ops with
    its key.
    """
    for op in ops:
        st.attempted += 1
        ref = refloop.timed_pass() if reference else None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception:  # a failing operation is counted, and the run goes on
            st.seconds += time.perf_counter() - t0
            st.failed += 1
            print(f"perfbench: {op.key} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        dt = time.perf_counter() - t0
        st.cpu.append(time.process_time() - c0)
        st.wall.append(dt)
        if ref is not None:
            st.ref_wall.append(ref[0])
            st.ref_cpu.append(ref[1])
        st.seconds += dt
        st.samples += op.samples
        st.steps += op.steps
        if tracer is not None:
            tracer.active = False
        try:
            digest = op.check(out)
            if digest != st.digests.setdefault(op.key, digest):
                raise CheckFailed(f"{op.key}: output differs from an earlier identical operation")
        except Exception as e:  # an output the check cannot even read is wrong too
            st.failed += 1
            st.wrong += 1
            detail = e if isinstance(e, CheckFailed) else traceback.format_exc()
            print(f"perfbench: {op.key} failed its check: {detail}", file=sys.stderr)
        finally:
            if tracer is not None:
                tracer.active = True


def _measure(ops, st: Stats, seconds: float, min_ops: int = 0, tracer=None, reference: bool = False) -> None:
    """Run whole rounds until st holds `seconds` of operation time and min_ops completed ops."""
    while st.seconds < seconds or st.done < min_ops:
        _round(ops, st, tracer, reference)


def _end_to_end(st: Stats, setups: list) -> tuple[dict, dict]:
    """(gated metrics, wall-clock metrics) of an untraced run.

    An op's time in refs is its time over the mean of the reference passes
    just before and just after it; throughputs divide by the summed ref times.
    """
    import numpy as np

    ref_wall = refloop.bracketing(st.ref_wall)
    ref_cpu = refloop.bracketing(st.ref_cpu)
    in_refs = [t / r for t, r in zip(st.wall, ref_wall)]
    cpu_in_refs = [c / r for c, r in zip(st.cpu, ref_cpu)]
    refs = sum(in_refs)
    gated = {
        "setup_s": statistics.median(setups),
        "ops_per_kref": 1000.0 * st.done / refs,
        "op_ref.p50": statistics.median(in_refs),
        "op_ref.p90": float(np.percentile(in_refs, 90)),
        "op_cpu_ref.p50": statistics.median(cpu_in_refs),
        "samples_per_ref": st.samples / refs,
        "steps_per_ref": st.steps / refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall_clock = {
        "ops_per_s": st.done / st.seconds,
        "op_s.p50": statistics.median(st.wall),
        "op_s.p90": float(np.percentile(st.wall, 90)),
        "op_cpu_s.p50": statistics.median(st.cpu),
        "samples_per_s": st.samples / st.seconds,
        "steps_per_s": st.steps / st.seconds,
        "refloop_ms.p50": 1e3 * statistics.median(st.ref_wall),
    }
    return ({k: (v, END_TO_END[k]) for k, v in gated.items()},
            {k: (v, WALL_CLOCK[k]) for k, v in wall_clock.items()})


def _setup_once(workload: str, seed: int) -> float:
    """Set-up time of one fresh process: imports, inputs and warm-up pass."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up process failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def _src_lines() -> int:
    pkg = os.path.join(SRC, "geodescent")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify-batch", "cli-small", "descent-trajectory"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_only:
            _setup(args.workload, args.seed, workdir)
            print(f"{time.perf_counter() - _START!r}")
            return 0
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: str) -> int:
    import numpy as np

    warm_up, ops = _setup(args.workload, args.seed, workdir)
    gc.collect()

    if args.trace:
        import tracing
        half = args.seconds / 2.0
        plain, warm, traced = Stats(), Stats(), Stats()
        _measure(ops, plain, half)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _round(warm_up, warm, tracer)
            _measure(ops, traced, half, tracer=tracer)
        finally:
            tracer.uninstall()
        stats = [plain, warm, traced]
        metrics = tracer.metrics(traced.done / traced.seconds, plain.done / plain.seconds)
        wall_clock = {}
    else:
        # set-up processes run between stretches of the measured phase, so
        # that their median sees the same machine as the operations do
        st, setups = Stats(), []
        for i in range(SETUP_RUNS):
            setups.append(_setup_once(args.workload, args.seed))
            _measure(ops, st, args.seconds * (i + 1) / SETUP_RUNS, reference=True)
        _measure(ops, st, args.seconds, MIN_OPS, reference=True)
        stats = [st]
        metrics, wall_clock = _end_to_end(st, setups)

    attempted = sum(s.attempted for s in stats)
    failed = sum(s.failed for s in stats)
    correct = not any(s.wrong for s in stats)
    env = {"cores": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
           "src_lines": _src_lines()}
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} correct={str(correct).lower()}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, (value, unit) in wall_clock.items():
        print(f"{name} {value:.6g} {unit} (wall clock, not gated)")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "env": env, **result,
                   "wall_clock": {k: {"value": v, "unit": u} for k, (v, u) in wall_clock.items()}},
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
