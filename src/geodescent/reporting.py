"""Report persistence: certificate JSON, trajectory CSV/JSON, canonical forms.

Written files carry a created_at timestamp; the canonical form used for
determinism comparisons strips it, sorts keys, and drops whitespace, so two
runs of the same seeded experiment compare byte-for-byte. Both are strict
JSON, with no NaN or Infinity: a trajectory writes its non-finite numbers as
null, and the CSV keeps them as inf and nan.

certificate.json is indented; trajectory.json, one object per record, is
written compact, which runs json's C encoder. trajectory.csv has one line per
record of repr'd floats, in csv's dialect (lines end in \r\n, and no field
needs quoting), written in one call."""

from __future__ import annotations

import datetime
import json
import os

from .certify import WscCertificate
from .descent import Trajectory

__all__ = [
    "canonical_json",
    "write_certificate",
    "write_trajectory_csv",
    "write_trajectory_json",
]


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def canonical_json(doc: dict) -> str:
    """Deterministic serialization of a report dict, timestamp excluded."""
    doc = {k: v for k, v in doc.items() if k != "created_at"}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _write_json(doc: dict, out_dir: str, name: str, indent=None) -> str:
    """Writes doc with a created_at timestamp; indent=None writes it compact,
    which runs json's C encoder (any indent runs the pure-Python one)."""
    os.makedirs(out_dir, exist_ok=True)
    doc["created_at"] = _utc_now()
    path = os.path.join(out_dir, name)
    separators = (",", ":") if indent is None else None
    text = json.dumps(doc, indent=indent, separators=separators, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path


def write_certificate(cert: WscCertificate, out_dir: str) -> str:
    return _write_json(cert.to_json_dict(), out_dir, "certificate.json", indent=2)


def write_trajectory_csv(traj: Trajectory, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trajectory.csv")
    ambient = len(traj.steps[0].point.coords) if traj.steps else 0
    header = ["step"] + [f"x{i}" for i in range(ambient)] + ["f", "grad_norm", "dist_to_min", "eta"]
    lines = [",".join(header)]
    lines += [
        ",".join([str(rec.index), *map(repr, rec.point.coords.tolist()), repr(rec.value),
                  repr(rec.gradient_norm), repr(rec.dist_to_min), repr(rec.eta_used)])
        for rec in traj.steps
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")  # csv's line terminator; no field needs quoting
    return path


def write_trajectory_json(traj: Trajectory, out_dir: str) -> str:
    return _write_json(traj.to_json_dict(), out_dir, "trajectory.json")
