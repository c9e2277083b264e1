"""Experiment configuration: schema validation and canonical normalization.

Config documents are JSON objects:

    {
      "manifold":  {"kind": "euclidean", "dim": 2},
      "objective": {"id": "quad_euclidean",
                    "params": {"q": [[1.0, 0.0], [0.0, 4.0]], "minimizer": [0.0, 0.0]}},
      "region":    {"radius": 10.0},
      "eta":       "auto",
      "n_samples": 1000,
      "n_steps":   50,
      "seed":      42,
      "workers":   1,
      "gamma":     null,
      "tolerances": {"residual": 1e-9},
      "out":       "out"
    }

manifold, objective, and region are required; everything else has defaults.
The certified region is always the geodesic ball around the objective's
minimizer, so only its radius is configurable. Every validation error names
the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Union

import numpy as np

from .certify import DEFAULT_TOL_RESIDUAL
from .manifolds import Manifold, ManifoldError, Region, manifold_from_descriptor
from .objectives import Objective, ObjectiveError, build

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config"]

DEFAULTS = {
    "eta": "auto",
    "n_samples": 1000,
    "n_steps": 50,
    "seed": 42,
    "workers": 1,
    "gamma": None,
    "out": "out",
}

_KNOWN_KEYS = frozenset(
    ["manifold", "objective", "region", "eta", "n_samples", "n_steps",
     "seed", "workers", "gamma", "tolerances", "out"]
)


class ConfigError(ValueError):
    """Malformed experiment configuration; the message names the field."""


def _require_mapping(data, field: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise ConfigError(f"field '{field}' must be a JSON object")
    return data


def _positive_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"field '{field}' must be a positive integer, got {value!r}")
    return value


def _normalize_params(params: Mapping, field: str) -> dict:
    """JSON-ready copy of objective parameters: numbers or rectangular arrays of numbers, as floats."""
    out = {}
    for key, val in params.items():
        where = f"field '{field}.params.{key}'"
        try:
            out[key] = np.asarray(val, dtype=float).tolist()
        except (ValueError, TypeError, OverflowError) as e:
            raise ConfigError(f"{where} must be a number or a rectangular numeric array: {e}") from e
        for v in np.asarray(val, dtype=object).flat:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"{where} must hold only numbers, got {v!r}")
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    manifold: Manifold
    objective: Objective
    objective_id: str
    objective_params: dict
    region: Region
    eta: Union[float, str]
    n_samples: int
    n_steps: int
    seed: int
    workers: int
    gamma: Optional[float]
    tol_residual: float
    out_dir: str

    def to_json_dict(self) -> dict:
        """Normalized canonical form: parse(to_json_dict(cfg)) round-trips."""
        return {
            "manifold": self.manifold.descriptor(),
            "objective": {"id": self.objective_id, "params": self.objective_params},
            "region": {"radius": self.region.radius},
            "eta": self.eta,
            "n_samples": self.n_samples,
            "n_steps": self.n_steps,
            "seed": self.seed,
            "workers": self.workers,
            "gamma": self.gamma,
            "tolerances": {"residual": self.tol_residual},
            "out": self.out_dir,
        }


def parse_config(data: Mapping, overrides: Optional[Mapping] = None) -> ExperimentConfig:
    """Validate a config document, apply CLI overrides, and build the objects."""
    data = dict(_require_mapping(data, "<config>"))
    if overrides:
        for key, val in overrides.items():
            if val is not None:
                data[key] = val

    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
    for required in ("manifold", "objective", "region"):
        if required not in data:
            raise ConfigError(f"field '{required}' is required")

    try:
        manifold = manifold_from_descriptor(_require_mapping(data["manifold"], "manifold"))
    except (ManifoldError, ValueError, TypeError) as e:
        raise ConfigError(f"field 'manifold': {e}") from e

    obj_spec = _require_mapping(data["objective"], "objective")
    obj_id = obj_spec.get("id")
    if not isinstance(obj_id, str):
        raise ConfigError("field 'objective.id' must be a string")
    params = _normalize_params(_require_mapping(obj_spec.get("params", {}), "objective.params"), "objective")
    extra = set(obj_spec) - {"id", "params"}
    if extra:
        raise ConfigError(f"unknown field(s) in 'objective': {', '.join(sorted(extra))}")
    try:
        objective = build(obj_id, params, manifold)
    except (ObjectiveError, ManifoldError, KeyError) as e:
        raise ConfigError(f"field 'objective': {e}") from e

    region_spec = _require_mapping(data["region"], "region")
    extra = set(region_spec) - {"radius"}
    if extra:
        raise ConfigError(f"unknown field(s) in 'region': {', '.join(sorted(extra))}")
    radius = region_spec.get("radius")
    if isinstance(radius, bool) or not isinstance(radius, (int, float)):
        raise ConfigError("field 'region.radius' must be a number")
    try:
        region = Region(objective.metadata.minimizer, float(radius))
    except (ManifoldError, ValueError) as e:
        raise ConfigError(f"field 'region.radius': {e}") from e

    eta = data.get("eta", DEFAULTS["eta"])
    if isinstance(eta, str):
        if eta != "auto":
            raise ConfigError(f"field 'eta' must be a positive number or \"auto\", got {eta!r}")
    elif isinstance(eta, bool) or not isinstance(eta, (int, float)):
        raise ConfigError(f"field 'eta' must be a positive number or \"auto\", got {eta!r}")
    else:
        eta = float(eta)
        if not math.isfinite(eta) or eta <= 0.0:
            raise ConfigError(f"field 'eta' must be a positive number or \"auto\", got {eta!r}")

    n_samples = _positive_int(data.get("n_samples", DEFAULTS["n_samples"]), "n_samples")
    n_steps = _positive_int(data.get("n_steps", DEFAULTS["n_steps"]), "n_steps")
    workers = _positive_int(data.get("workers", DEFAULTS["workers"]), "workers")

    seed = data.get("seed", DEFAULTS["seed"])
    if isinstance(seed, bool) or not isinstance(seed, int) or not (0 <= seed < 2**64):
        raise ConfigError(f"field 'seed' must be an unsigned 64-bit integer, got {seed!r}")

    gamma = data.get("gamma", DEFAULTS["gamma"])
    if gamma is not None:
        if isinstance(gamma, bool) or not isinstance(gamma, (int, float)) or not math.isfinite(gamma) or gamma <= 0:
            raise ConfigError(f"field 'gamma' must be a positive number or null, got {gamma!r}")
        gamma = float(gamma)

    tolerances = _require_mapping(data.get("tolerances", {}), "tolerances")
    extra = set(tolerances) - {"residual"}
    if extra:
        raise ConfigError(f"unknown field(s) in 'tolerances': {', '.join(sorted(extra))}")
    tol_residual = tolerances.get("residual", DEFAULT_TOL_RESIDUAL)
    if isinstance(tol_residual, bool) or not isinstance(tol_residual, (int, float)) \
            or not math.isfinite(tol_residual) or tol_residual <= 0:
        raise ConfigError(f"field 'tolerances.residual' must be a positive number, got {tol_residual!r}")

    out_dir = data.get("out", DEFAULTS["out"])
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"field 'out' must be a nonempty string, got {out_dir!r}")

    return ExperimentConfig(
        manifold=manifold,
        objective=objective,
        objective_id=obj_id,
        objective_params=params,
        region=region,
        eta=eta,
        n_samples=n_samples,
        n_steps=n_steps,
        seed=seed,
        workers=workers,
        gamma=gamma,
        tol_residual=float(tol_residual),
        out_dir=out_dir,
    )


def load_config(path: str, overrides: Optional[Mapping] = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path!r} is not valid JSON: {e}") from e
    return parse_config(data, overrides)
