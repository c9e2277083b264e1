"""Benchmark workloads: inputs made from a seed, the timed operations, their checks.

Every operation is a call into geodescent's public API, paired with a check
that compares its output against perfbench.reference (no geodescent code on
the checking side, apart from evaluating the objective being checked) and
returns the bytes that must repeat whenever the same operation runs again.

Calls go through module attributes (certify.certify_region, descent.run,
cli.main, ...) so that the tracer's patches on those modules see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from geodescent import certify, cli, descent, manifolds, objectives, reporting

import reference as ref
from reference import Problem, require

WORKLOADS = ("certify-batch", "cli-small", "descent-trajectory")

# Geometries of the library workloads, in round order.
ROUND = ("euclidean", "flat_metric", "sphere", "hyperboloid", "euclidean", "flat_metric", "sphere")
# Size of each operation of ROUND as a power of 1.12, about 2x from the
# smallest to the largest. The machine's speed switches between states; equal
# operations would time as one tight group per state, and the median would jump
# between the groups as the share of time in each state changes. Spread sizes
# give a continuum of timings, so the median moves smoothly instead.
SIZE_POWERS = (-3, 1, -1, 3, 2, -2, 0)

# Samples per certify_region call and steps per trajectory at size 1, sized so
# that every geometry's operation costs about the same wall time.
CERTIFY_SAMPLES = {"euclidean": 1200, "flat_metric": 900, "sphere": 600, "hyperboloid": 450}
TRAJECTORY_STEPS = {"euclidean": 2000, "flat_metric": 1400, "sphere": 1250, "hyperboloid": 750}


def _sized(count: int, i: int) -> int:
    return round(count * 1.12 ** SIZE_POWERS[i])
# (intrinsic dimension, region radius) of the library workloads' problems
LIBRARY_SHAPE = {"euclidean": (6, 3.0), "flat_metric": (4, 2.0), "sphere": (4, 0.6), "hyperboloid": (3, 2.0)}


@dataclass(frozen=True)
class Op:
    """One timed call into the program.

    check(output) raises CheckFailed or returns the bytes the output must
    reproduce; operations sharing a key must produce identical bytes.
    """

    key: str
    call: Callable[[], Any]
    check: Callable[[Any], bytes]
    samples: int
    steps: int


# -- inputs --------------------------------------------------------------------


def _spd(rng: np.random.Generator, eigs) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((len(eigs), len(eigs))))
    q = q * np.sign(np.diag(r))
    m = (q * np.asarray(eigs, dtype=float)) @ q.T
    return 0.5 * (m + m.T)


def make_problem(kind: str, rng: np.random.Generator, dim: int, radius: float) -> Problem:
    """A fresh instance of one catalog objective; dim is the intrinsic dimension."""
    if kind == "euclidean":
        params = {"q": _spd(rng, np.linspace(1.0, 10.0, dim)), "minimizer": rng.standard_normal(dim)}
    elif kind == "flat_metric":
        params = {"q": _spd(rng, np.linspace(1.0, 5.0, dim)), "minimizer": rng.standard_normal(dim),
                  "metric": _spd(rng, np.linspace(1.0, 3.0, dim))}
    elif kind == "sphere":
        params = {"matrix": _spd(rng, np.append(np.linspace(0.0, 1.5, dim), 3.0))}
    elif kind == "hyperboloid":
        params = {"target": ref.lift_to_hyperboloid(0.5 * rng.standard_normal(dim))}
    elif kind == "perturbed":
        # epsilon and omega as in the acceptance gate's refutation case: the
        # perturbation puts critical points inside the unit ball
        params = {"q": np.diag([1.0, 4.0]), "minimizer": rng.standard_normal(2),
                  "epsilon": 0.4, "omega": 5.0}
    else:
        raise ValueError(f"unknown problem kind {kind!r}")
    return Problem(kind, params, radius)


def build_objective(prob: Problem) -> objectives.Objective:
    p = prob.params
    if prob.kind == "euclidean":
        return objectives.quad_euclidean(p["q"], p["minimizer"])
    if prob.kind == "flat_metric":
        return objectives.quad_flat_metric(p["q"], p["minimizer"], p["metric"])
    if prob.kind == "sphere":
        return objectives.rayleigh_sphere(p["matrix"])
    if prob.kind == "hyperboloid":
        return objectives.sqdist_hyperboloid(p["target"])
    return objectives.perturbed_quad(p["q"], p["minimizer"], epsilon=p["epsilon"], omega=p["omega"])


def library_eta(prob: Problem) -> float:
    """Step for library certify calls: 1/lambda_max, 1/(spectral width), or 1/2."""
    if prob.kind in ("euclidean", "flat_metric"):
        return 1.0 / float(ref.quad_spectrum(prob)[-1])
    if prob.kind == "sphere":
        ev = np.linalg.eigvalsh(prob.params["matrix"])
        return 1.0 / float(ev[-1] - ev[0])
    return 0.5


def auto_eta(prob: Problem, gamma_used: float) -> float:
    """The CLI's eta "auto": min(a / (zeta * gamma), 2 / gamma), a = 1 throughout."""
    if prob.kind in ("euclidean", "flat_metric"):
        gamma = float(ref.quad_spectrum(prob)[-1])
    elif prob.kind == "hyperboloid":
        gamma = 1.0
    elif prob.kind == "perturbed":
        p = prob.params
        gamma = float(np.linalg.eigvalsh(p["q"])[-1]) + 2.0 * p["epsilon"] * p["omega"] ** 2
    else:
        gamma = gamma_used  # estimated by sampling; nothing closed-form to compare with
    require(abs(gamma_used - gamma) <= 1e-12 * gamma, f"gamma_used {gamma_used!r}, expected {gamma!r}")
    r = prob.radius
    zeta = r / math.tanh(r) if prob.kind == "hyperboloid" else 1.0
    return min(1.0 / (zeta * gamma), 2.0 / gamma)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**32))


# -- operations ----------------------------------------------------------------


def _check_fresh_points(prob: Problem, obj, seed: int) -> None:
    """Weak-strong-convexity with the closed-form (a, mu) at points the program never drew."""
    if ref.analytic_constants(prob) is None:
        return
    rng = np.random.default_rng(seed)
    pts = [ref.fresh_point(prob, rng) for _ in range(4)]
    mpts = [obj.manifold.point(x) for x in pts]
    ref.check_wsc(prob, pts, [obj.value(p) for p in mpts],
                  obj.value(obj.metadata.minimizer), [obj.gradient(p).coords for p in mpts])


def certify_op(key: str, prob: Problem, n_samples: int, seed: int) -> Op:
    obj = build_objective(prob)
    region = manifolds.Region(obj.metadata.minimizer, prob.radius)
    eta = library_eta(prob)

    def check(cert) -> bytes:
        doc = cert.to_json_dict()
        require(doc["n_samples"] == n_samples and doc["seed"] == seed, "certificate echoes wrong inputs")
        require(doc["eta_used"] == eta, "certificate echoes a different eta")
        ref.check_certificate(doc, prob)
        _check_fresh_points(prob, obj, seed)
        return reporting.canonical_json(doc).encode()

    return Op(key, lambda: certify.certify_region(obj, region, eta, n_samples, seed),
              check, n_samples, n_samples)


def _trajectory_arrays(steps: list) -> tuple:
    coords = np.array([s[0] for s in steps], dtype=float)
    values, dists, etas = (np.array([s[i] for s in steps], dtype=float) for i in (1, 2, 3))
    return coords, values, dists, etas


def _digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def trajectory_op(key: str, prob: Problem, n_steps: int, eta: float, seed: int) -> Op:
    obj = build_objective(prob)
    region = manifolds.Region(obj.metadata.minimizer, prob.radius)
    policy = descent.StepSizePolicy(mode="fixed", eta=eta)

    def call():
        x0 = manifolds.sample_point(region, np.random.default_rng(seed))
        return descent.run(obj, x0, policy, n_steps, region=region, seed=seed)

    def check(traj) -> bytes:
        require(traj.stop_reason == "completed", f"trajectory stopped: {traj.stop_reason}")
        require(len(traj.steps) == n_steps + 1, "trajectory has the wrong number of records")
        coords, values, dists, _ = _trajectory_arrays(
            [(r.point.coords, r.value, r.dist_to_min, r.eta_used) for r in traj.steps])
        ref.check_trajectory(prob, coords, values, dists, eta)
        return _digest(coords, values, dists)

    return Op(key, call, check, 1, n_steps)


def write_config(path: str, prob: Problem, **fields) -> str:
    """Write a CLI config document for prob; fields are the remaining top-level keys."""
    ambient = {"sphere": "matrix", "hyperboloid": "target"}
    if prob.kind in ambient:
        manifold = {"kind": prob.kind, "dim": len(prob.params[ambient[prob.kind]]) - 1}
    else:
        dim = len(prob.params["minimizer"])
        manifold = {"kind": "flat_metric" if prob.kind == "flat_metric" else "euclidean", "dim": dim}
    params = {k: np.asarray(v).tolist() for k, v in prob.params.items()}
    if prob.kind == "flat_metric":
        manifold["metric_matrix"] = params.pop("metric")
    doc = {"manifold": manifold, "objective": {"id": prob.objective_id, "params": params},
           "region": {"radius": prob.radius}, "eta": "auto", **fields}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    os.remove(path)  # a stale file must not pass for the next command's output
    return doc


def cli_certify_op(key: str, prob: Problem, cfg: str, out: str, workers: int, n_samples: int) -> Op:
    argv = ["certify", "--config", cfg, "--quiet", "--out", out, "--workers", str(workers)]

    def check(code) -> bytes:
        doc = _read_json(os.path.join(out, "certificate.json"))
        expected = {"certified": 0, "refuted": 1, "inconclusive": 2}[doc["verdict"]]
        require(code == expected, f"exit code {code} for verdict {doc['verdict']}")
        require(doc["n_samples"] == n_samples, "certificate echoes the wrong sample count")
        eta = auto_eta(prob, doc["gamma_used"])
        require(abs(doc["eta_used"] - eta) <= 1e-12 * eta, f"eta_used {doc['eta_used']!r}, expected {eta!r}")
        ref.check_certificate(doc, prob)
        return reporting.canonical_json(doc).encode()

    return Op(key, lambda: cli.main(argv), check, n_samples, n_samples)


def cli_run_op(key: str, prob: Problem, cfg: str, out: str, n_steps: int) -> Op:
    argv = ["run", "--config", cfg, "--quiet", "--out", out]

    def check(code) -> bytes:
        require(code == 0, f"run exited {code}")
        doc = _read_json(os.path.join(out, "trajectory.json"))
        with open(os.path.join(out, "trajectory.csv"), encoding="utf-8") as fh:
            rows = sum(1 for _ in fh)
        os.remove(os.path.join(out, "trajectory.csv"))
        require(rows == n_steps + 2, f"trajectory.csv has {rows} lines, expected {n_steps + 2}")
        steps = doc["steps"]
        require(len(steps) == n_steps + 1 and doc["stop_reason"] == "completed", "run did not complete")
        coords, values, dists, etas = _trajectory_arrays(
            [(s["coords"], s["value"], s["dist_to_min"], s["eta_used"]) for s in steps])
        eta = auto_eta(prob, doc["policy"]["gamma"])
        require(np.all(np.abs(etas - eta) <= 1e-12 * eta), "trajectory eta differs from eta auto")
        ref.check_trajectory(prob, coords, values, dists, eta)
        return _digest(coords, values, dists)

    return Op(key, lambda: cli.main(argv), check, 1, n_steps)


# -- workloads -----------------------------------------------------------------


def _certify_batch(rng: np.random.Generator, workdir: str) -> list[Op]:
    ops = []
    for i, kind in enumerate(ROUND):
        prob = make_problem(kind, rng, *LIBRARY_SHAPE[kind])
        ops.append(certify_op(f"certify/{i}/{kind}", prob, _sized(CERTIFY_SAMPLES[kind], i), _seed(rng)))
    return ops


def _descent_trajectory(rng: np.random.Generator, workdir: str) -> list[Op]:
    ops = []
    for i, kind in enumerate(ROUND):
        prob = make_problem(kind, rng, *LIBRARY_SHAPE[kind])
        # a twentieth of the certify step keeps iterates far from the minimizer
        # for the whole trajectory, so every step does representative work
        eta = library_eta(prob) / 20.0 if kind != "hyperboloid" else 0.005
        ops.append(trajectory_op(f"trajectory/{i}/{kind}", prob, _sized(TRAJECTORY_STEPS[kind], i), eta,
                                 _seed(rng)))
    return ops


# (kind, intrinsic dim, radius, samples); each config runs at 1 and 2 workers
CLI_CERTIFY = (("euclidean", 4, 2.0, 400), ("flat_metric", 3, 2.0, 300), ("sphere", 3, 0.5, 200),
               ("hyperboloid", 2, 1.5, 150), ("perturbed", 2, 1.0, 300))
CLI_RUN = (("euclidean", 4, 2.0, 200), ("sphere", 3, 0.5, 200), ("hyperboloid", 2, 1.5, 200))


def _cli_small(rng: np.random.Generator, workdir: str) -> list[Op]:
    ops = []
    for kind, dim, radius, n in CLI_CERTIFY:
        prob = make_problem(kind, rng, dim, radius)
        cfg = write_config(os.path.join(workdir, f"certify-{kind}.json"), prob,
                           n_samples=n, seed=_seed(rng))
        for workers in (1, 2):
            out = os.path.join(workdir, f"certify-{kind}-w{workers}")
            ops.append(cli_certify_op(f"cli-certify/{kind}", prob, cfg, out, workers, n))
    for kind, dim, radius, n in CLI_RUN:
        prob = make_problem(kind, rng, dim, radius)
        cfg = write_config(os.path.join(workdir, f"run-{kind}.json"), prob, n_steps=n, seed=_seed(rng))
        ops.append(cli_run_op(f"cli-run/{kind}", prob, cfg, os.path.join(workdir, f"run-{kind}"), n))
    return ops


def warm_up_ops(rng: np.random.Generator, workdir: str) -> list[Op]:
    """One small call through every traced layer: each geometry's certify and
    descent, and the CLI's certify at 1 and 2 workers and its run."""
    ops = []
    for kind in ("euclidean", "flat_metric", "sphere", "hyperboloid"):
        prob = make_problem(kind, rng, 2, 0.5)
        ops.append(certify_op(f"warm-up/certify/{kind}", prob, 32, _seed(rng)))
        ops.append(trajectory_op(f"warm-up/trajectory/{kind}", prob, 16, library_eta(prob) / 2.0, _seed(rng)))
    prob = make_problem("euclidean", rng, 2, 1.0)
    cfg = write_config(os.path.join(workdir, "warm-up.json"), prob, n_samples=32, n_steps=16, seed=_seed(rng))
    for workers in (1, 2):
        ops.append(cli_certify_op("warm-up/cli-certify", prob, cfg, os.path.join(workdir, "warm-up"), workers, 32))
    ops.append(cli_run_op("warm-up/cli-run", prob, cfg, os.path.join(workdir, "warm-up"), 16))
    return ops


_ROUNDS = {"certify-batch": _certify_batch, "cli-small": _cli_small,
             "descent-trajectory": _descent_trajectory}


def build(workload: str, seed: int, workdir: str) -> tuple[list[Op], list[Op]]:
    """(warm-up ops, one round of the workload's ops), all made from seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = _ROUNDS[workload](rng, workdir)
    return warm_up_ops(rng, workdir), ops
