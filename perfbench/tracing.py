"""Per-layer tracing from outside the program.

The tracer replaces each traced public function with a wrapper that records
a span around the call. Modules import these names directly (cli calls
descent.run as run_trajectory, certify calls manifolds.dist as dist), so a
function is patched in every geodescent module that binds it, under whatever
name. Methods are patched on their class; ManifoldPoint.new and
TangentVector.new are the dataclass constructors, whose __post_init__
validates. certify.default_rng is numpy's default_rng, counted only while a
certify operation is running.

Spans are folded into per-thread totals as they close (calls, time inside,
self time, which excludes traced children on the same thread), so tracing
needs no lock and keeps no per-call record. Worker threads of a --workers 2
command have their own totals; their spans overlap the main thread's, so
summed times can exceed wall time.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

from geodescent import certify, cli, config, descent, manifolds, objectives, reporting

# (owner, attribute, layer name); module-level functions are patched wherever bound
LAYERS = (
    (manifolds, "exp_map", "manifolds.exp_map"),
    (manifolds, "log_map", "manifolds.log_map"),
    (manifolds, "dist", "manifolds.dist"),
    (manifolds, "parallel_transport", "manifolds.parallel_transport"),
    (manifolds, "inner", "manifolds.inner"),
    (manifolds, "sample_point", "manifolds.sample_point"),
    (manifolds.ManifoldPoint, "__init__", "manifolds.ManifoldPoint.new"),
    (manifolds.TangentVector, "__init__", "manifolds.TangentVector.new"),
    (objectives.Objective, "value", "objectives.Objective.value"),
    (objectives.Objective, "gradient", "objectives.Objective.gradient"),
    (objectives, "estimate_gamma", "objectives.estimate_gamma"),
    (descent, "rgd_step", "descent.rgd_step"),
    (descent, "run", "descent.run"),
    (certify, "certify_region", "certify.certify_region"),
    (certify, "resolve_gamma", "certify.resolve_gamma"),
    (np.random, "default_rng", "certify.default_rng"),
    (config, "load_config", "config.load_config"),
    (reporting, "write_certificate", "reporting.write_certificate"),
    (reporting, "write_trajectory_csv", "reporting.write_trajectory_csv"),
    (reporting, "write_trajectory_json", "reporting.write_trajectory_json"),
    (cli, "main", "cli.main"),
)
SELF_TIMED = ("certify.certify_region", "descent.run", "cli.main")
PER_SAMPLE = ("objectives.Objective.gradient", "objectives.Objective.value", "manifolds.dist",
              "manifolds.ManifoldPoint.new", "manifolds.TangentVector.new", "certify.default_rng")
PER_COMMAND = ("certify.resolve_gamma", "objectives.estimate_gamma")
GEOMETRIES = ("euclidean", "flat_metric", "sphere", "hyperboloid")


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for _, _, name in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units.update({f"{name}.self_s": "s" for name in SELF_TIMED})
    units.update({f"{name}.per_sample": "1/sample" for name in PER_SAMPLE})
    units.update({f"{name}.per_command": "1/command" for name in PER_COMMAND})
    units.update({f"certify.us_per_sample.{g}": "us" for g in GEOMETRIES})
    units.update({"cli.main.s.workers1": "s", "cli.main.s.workers2": "s", "trace.overhead": "ratio"})
    return units


class _Totals:
    """One thread's span totals."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.in_certify = Counter()   # calls inside certify operations, outside estimate_gamma
        self.open = []                # child seconds of each open span
        self.gamma_depth = 0
        self.cli_certify = False
        self.certify_ops = 0
        self.certify_seconds = defaultdict(float)
        self.certify_samples = Counter()
        self.cli_seconds = defaultdict(float)
        self.cli_commands = Counter()


class Tracer:
    """Install with install(), read with metrics(), remove with uninstall().

    Recording happens only while active is true, so the benchmark's own
    checks can call the program without being counted.
    """

    def __init__(self):
        self.active = False
        self._certify_depth = 0  # certify operations under way; read from worker threads
        self._local = threading.local()
        self._lock = threading.Lock()
        self._all = []
        self._patches = []

    def _totals(self) -> _Totals:
        t = getattr(self._local, "totals", None)
        if t is None:
            t = self._local.totals = _Totals()
            with self._lock:
                self._all.append(t)
        return t

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "geodescent" or n.startswith("geodescent.")]
        for owner, attr, name in LAYERS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for target in modules if owner in modules else [owner]:
                for key, val in list(vars(target).items()):
                    if val is original:
                        self._patches.append((target, key, original))
                        setattr(target, key, wrapper)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        tracer = self
        hook = {"certify.certify_region": self._certify_region, "cli.main": self._cli_main,
                "objectives.estimate_gamma": self._estimate_gamma}.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.active or (name == "certify.default_rng" and not tracer._certify_depth):
                return fn(*args, **kwargs)
            t = tracer._totals()
            inside = tracer._certify_depth > 0 and t.gamma_depth == 0
            t.open.append(0.0)
            start = time.perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(t, fn, args, kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = t.open.pop()
                if t.open:
                    t.open[-1] += elapsed
                t.calls[name] += 1
                t.seconds[name] += elapsed
                t.self_seconds[name] += elapsed - children
                if inside:
                    t.in_certify[name] += 1

        return wrapper

    # hooks run inside the span of the call they wrap

    def _certify_region(self, t, fn, args, kwargs):
        obj = args[0]
        n = kwargs["n_samples"] if "n_samples" in kwargs else args[3]
        if not t.cli_certify:
            t.certify_ops += 1
        self._certify_depth += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._certify_depth -= 1
            t.certify_seconds[obj.manifold.kind] += time.perf_counter() - start
            t.certify_samples[obj.manifold.kind] += n

    def _cli_main(self, t, fn, args, kwargs):
        argv = list(args[0]) if args else []
        if not argv or argv[0] != "certify":
            return fn(*args, **kwargs)
        workers = int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1
        t.certify_ops += 1
        t.cli_certify = True
        self._certify_depth += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._certify_depth -= 1
            t.cli_certify = False
            t.cli_seconds[workers] += time.perf_counter() - start
            t.cli_commands[workers] += 1

    def _estimate_gamma(self, t, fn, args, kwargs):
        t.gamma_depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            t.gamma_depth -= 1

    def metrics(self, traced_ops_per_s: float, untraced_ops_per_s: float) -> dict:
        """name -> (value, unit) for every per-layer metric."""
        merged = _Totals()
        for t in self._all:
            for field in ("calls", "seconds", "self_seconds", "in_certify", "certify_seconds",
                          "certify_samples", "cli_seconds", "cli_commands"):
                for k, v in getattr(t, field).items():
                    getattr(merged, field)[k] += v
            merged.certify_ops += t.certify_ops
        samples = sum(merged.certify_samples.values())
        values = {}
        for _, _, name in LAYERS:
            values[f"{name}.calls"] = merged.calls[name]
            values[f"{name}.s"] = merged.seconds[name]
        for name in SELF_TIMED:
            values[f"{name}.self_s"] = merged.self_seconds[name]
        for name in PER_SAMPLE:
            values[f"{name}.per_sample"] = merged.in_certify[name] / max(samples, 1)
        for name in PER_COMMAND:
            values[f"{name}.per_command"] = merged.in_certify[name] / max(merged.certify_ops, 1)
        for g in GEOMETRIES:
            values[f"certify.us_per_sample.{g}"] = (
                1e6 * merged.certify_seconds[g] / max(merged.certify_samples[g], 1))
        for w in (1, 2):
            values[f"cli.main.s.workers{w}"] = merged.cli_seconds[w] / max(merged.cli_commands[w], 1)
        values["trace.overhead"] = traced_ops_per_s / untraced_ops_per_s
        return {name: (values[name], unit) for name, unit in metric_units().items()}
