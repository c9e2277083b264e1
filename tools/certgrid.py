"""Byte-identity grid: one digest over certificates, CLI outputs and check outcomes.

Runs a fixed grid through geodescent's public API and prints the sha256 of its
lines; `--dump` prints the lines themselves, so two checkouts can be diffed
line by line. Each line is a key, then either the canonical JSON of the result
or the type and message of the error raised, then the RuntimeWarnings emitted
on the way. Sections:

  lib    certify_region over the catalog objectives x radii x eta x seed x
         gamma override x sample count;
  cli    `geodescent certify` and `geodescent run` on one config per catalog
         objective: exit code, stdout, stderr and the written files (JSON in
         canonical form);
  edge   huge radii at the certifier and the CLI, and sphere checks on
         coordinates whose squares overflow.

Run from the root of a source checkout: python tools/certgrid.py [--dump]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from geodescent import cli  # noqa: E402
from geodescent.certify import certify_region  # noqa: E402
from geodescent.manifolds import Region, Sphere, TangentVector  # noqa: E402
from geodescent.objectives import perturbed_quad, quad_euclidean  # noqa: E402
from geodescent.reporting import canonical_json  # noqa: E402
from geodescent.selftest import objective_zoo  # noqa: E402

# (mid, large) region radius per geometry; every objective also runs at
# 0, 1e-7, 1e154 and 1e200, which some geometries reject
RADII = {"euclidean": (1.0, 1e3), "flat_metric": (1.0, 1e3), "sphere": (0.3, 0.7), "hyperboloid": (1.0, 6.0)}
ETAS = ("auto", 0.1, 0.25, 1.0, 10.0, 1e160)
SEEDS = (0, 7, 2**40 + 3)
GAMMAS = (None, 5.0)
SAMPLES = (1, 48)

Q14 = [[1.0, 0.0], [0.0, 4.0]]
CONFIGS = {
    "quad_euclidean": ({"kind": "euclidean", "dim": 2}, {"q": Q14, "minimizer": [0.0, 0.0]}, 10.0),
    "quad_flat_metric": ({"kind": "flat_metric", "dim": 2, "metric_matrix": [[2.0, 0.3], [0.3, 1.5]]},
                         {"q": Q14, "minimizer": [0.0, 0.0]}, 5.0),
    "rayleigh_sphere": ({"kind": "sphere", "dim": 2}, {"matrix": [[3, 0, 0], [0, 2.5, 0], [0, 0, 1]]}, 0.5),
    "sqdist_hyperboloid": ({"kind": "hyperboloid", "dim": 2}, {"target": [0.0, 0.0, 1.0]}, 2.0),
    "perturbed_quad": ({"kind": "euclidean", "dim": 2}, {"q": Q14, "minimizer": [0.0, 0.0], "epsilon": 0.3}, 1.0),
}


def _outcome(fn) -> str:
    """The result of fn() (a string) or the error it raised, then the warnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn()
        except Exception as e:  # noqa: BLE001 - every error type is part of the record
            out = f"error {type(e).__name__}: {e}"
    seen = sorted({f"{w.category.__name__}: {w.message}" for w in caught})
    return f"{out} warnings={json.dumps(seen)}"


def _certificate(obj, radius, eta, n, seed, gamma) -> str:
    region = Region(obj.metadata.minimizer, radius)
    return canonical_json(certify_region(obj, region, eta, n, seed, gamma_override=gamma).to_json_dict())


def library_lines():
    for obj in objective_zoo():
        mid, large = RADII[obj.manifold.kind]
        for radius in (0.0, 1e-7, mid, large, 1e154, 1e200):
            for eta in ETAS:
                for seed in SEEDS:
                    for gamma in GAMMAS:
                        for n in SAMPLES:
                            key = f"lib {obj.id} r={radius!r} eta={eta!r} seed={seed} gamma={gamma!r} n={n}"
                            yield key, _outcome(lambda: _certificate(obj, radius, eta, n, seed, gamma))


def _cli(command: str, doc: dict, out: str) -> str:
    """Exit code, stdout, stderr and written files of one CLI command, paths replaced by <out>."""
    cfg = os.path.join(out, "config.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([command, "--config", cfg, "--out", out])
    files = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name == "config.json":
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        files[name] = canonical_json(json.loads(text)) if name.endswith(".json") else text
        os.remove(path)
    os.remove(cfg)
    return json.dumps({"exit": code, "stdout": stdout.getvalue().replace(out, "<out>"),
                       "stderr": stderr.getvalue().replace(out, "<out>"), "files": files}, sort_keys=True)


def _config(objective_id: str, radius: float, eta, seed: int) -> dict:
    manifold, params, _ = CONFIGS[objective_id]
    return {"manifold": manifold, "objective": {"id": objective_id, "params": params},
            "region": {"radius": radius}, "eta": eta, "seed": seed, "n_samples": 200, "n_steps": 30}


def cli_lines(out: str):
    for objective_id, (_, _, radius) in CONFIGS.items():
        for eta in ("auto", 0.1):
            for seed in (0, 42):
                for command in ("certify", "run"):
                    key = f"cli {command} {objective_id} r={radius!r} eta={eta!r} seed={seed}"
                    yield key, _outcome(lambda: _cli(command, _config(objective_id, radius, eta, seed), out))


def edge_lines(out: str):
    q14 = np.diag([1.0, 4.0])
    cases = {
        "quad_euclidean r=1e308 eta=0.25": (quad_euclidean(q14, [0.0, 0.0]), 1e308, 0.25),
        "perturbed_quad r=3e307 eta=0.01": (perturbed_quad(q14, [0.0, 0.0]), 3e307, 0.01),
    }
    for name, (obj, radius, eta) in cases.items():
        yield f"edge lib {name} seed=1 n=50", _outcome(lambda: _certificate(obj, radius, eta, 50, 1, None))
    for objective_id, radius, eta in (("quad_euclidean", 1e308, 0.25), ("perturbed_quad", 3e307, 0.01)):
        for command in ("certify", "run"):
            key = f"edge cli {command} {objective_id} r={radius!r} eta={eta!r} seed=1"
            yield key, _outcome(lambda: _cli(command, _config(objective_id, radius, eta, 1), out))
    sphere = Sphere(2)
    yield "edge sphere tangent [1e300, 1e300, 1e-300] at [0, 0, 1]", _outcome(
        lambda: repr(TangentVector(sphere.point([0.0, 0.0, 1.0]), [1e300, 1e300, 1e-300]).coords.tolist()))
    yield "edge sphere point [1e200, 0, 0]", _outcome(lambda: repr(sphere.point([1e200, 0.0, 0.0]).coords.tolist()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", action="store_true", help="print every line before the digest")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as out:
        lines = [f"{key} -> {value}" for section in (library_lines(), cli_lines(out), edge_lines(out))
                 for key, value in section]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    if args.dump:
        print("\n".join(lines))
    print(f"certgrid {len(lines)} lines sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
