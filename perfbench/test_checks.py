"""The benchmark's checks must fail an operation whose output was corrupted.

Each test corrupts one result from outside the program (a patched kernel, a
tampered certificate, a changed exit code) and shows that the runner counts
the operation as failed. A first test shows that uncorrupted outputs pass, so
the others cannot pass by failing everything.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from geodescent import cli, manifolds, objectives

import run
import workloads
import reference as ref
from reference import CheckFailed
from workloads import make_problem


def _one_round(ops) -> run.Stats:
    st = run.Stats()
    run._round(ops, st)
    return st


def _failed(ops) -> int:
    """How many of ops the runner counts as failed in one round."""
    return _one_round(ops).failed


def _problem(kind, seed=11):
    dim, radius = workloads.LIBRARY_SHAPE[kind]
    return make_problem(kind, np.random.default_rng(seed), dim, radius)


def _certify(kind, n=64, seed=11):
    return workloads.certify_op(f"certify/{kind}", _problem(kind, seed), n, seed)


def _trajectory(kind, n_steps=40, seed=11):
    prob = _problem(kind, seed)
    return workloads.trajectory_op(f"trajectory/{kind}", prob, n_steps, workloads.library_eta(prob) / 4.0, seed)


def _tampered(op, **changes):
    """op whose certificate has the given fields replaced before it is checked."""
    return dataclasses.replace(op, call=lambda: dataclasses.replace(op.call(), **changes))


@pytest.fixture
def cli_ops(tmp_path):
    rng = np.random.default_rng(5)
    ops = {}
    for kind, dim, radius, n in (("euclidean", 2, 1.0, 40), ("perturbed", 2, 1.0, 200)):
        prob = make_problem(kind, rng, dim, radius)
        cfg = workloads.write_config(str(tmp_path / f"{kind}.json"), prob, n_samples=n, n_steps=20, seed=7)
        ops[kind] = [workloads.cli_certify_op(f"cli/{kind}", prob, cfg, str(tmp_path / f"{kind}-w{w}"), w, n)
                     for w in (1, 2)]
        ops[f"run-{kind}"] = workloads.cli_run_op(f"cli-run/{kind}", prob, cfg, str(tmp_path / f"run-{kind}"), 20)
    return ops


def test_uncorrupted_outputs_pass(tmp_path, cli_ops):
    warm_up, _ = workloads.build("certify-batch", 3, str(tmp_path))
    ops = warm_up + [_certify(k) for k in workloads.LIBRARY_SHAPE]
    ops += [_trajectory(k) for k in workloads.LIBRARY_SHAPE]
    ops += cli_ops["euclidean"] + cli_ops["perturbed"] + [cli_ops["run-euclidean"]]
    st = _one_round(ops)
    assert (st.attempted, st.failed) == (len(ops), 0)


def test_flipped_verdict_fails():
    assert _failed([_tampered(_certify("euclidean"), verdict="refuted")]) == 1


def test_perturbed_certificate_turned_certified_fails(monkeypatch, cli_ops):
    real = cli.certify_region

    def certified(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), verdict="certified", witness=None)

    monkeypatch.setattr(cli, "certify_region", certified)
    with pytest.raises(CheckFailed, match="came out certified"):
        op = cli_ops["perturbed"][0]
        op.check(op.call())


def test_exit_code_disagreeing_with_verdict_fails(monkeypatch, cli_ops):
    monkeypatch.setitem(cli._VERDICT_EXIT, "certified", 2)
    assert _failed(cli_ops["euclidean"]) == 2


def test_worst_ratio_above_spectral_bound_fails():
    op = _certify("euclidean")
    cert = op.call()
    prob = _problem("euclidean")
    worst = 1.000001 * float(np.max((1.0 - cert.eta_used * ref.quad_spectrum(prob)) ** 2))
    with pytest.raises(CheckFailed, match="exceeds max_i"):
        op.check(dataclasses.replace(cert, worst_ratio=worst, c_obs=1.0 - worst))


def test_constants_above_contraction_fail():
    op = _certify("flat_metric")
    cert = op.call()
    with pytest.raises(CheckFailed, match="exceeds c_obs"):
        op.check(dataclasses.replace(cert, a=10.0 * cert.a))


def test_sphere_centre_off_the_top_eigenvector_fails():
    op = _certify("sphere")
    cert = op.call()
    second = np.linalg.eigh(_problem("sphere").params["matrix"])[1][:, -2]
    other = cert.region.center.manifold.point(second)
    with pytest.raises(CheckFailed, match="top eigenvector"):
        op.check(dataclasses.replace(cert, region=manifolds.Region(other, cert.region.radius)))


def test_scaled_sphere_exp_fails(monkeypatch):
    real = manifolds.Sphere._exp
    monkeypatch.setattr(manifolds.Sphere, "_exp", lambda self, x, v: (1.0 + 1e-6) * real(self, x, v))
    assert _failed([_certify("sphere"), _trajectory("sphere")]) == 2


def test_overstepping_sphere_exp_fails(monkeypatch):
    # still a unit vector, so the program's own point validation accepts it
    real = manifolds.Sphere._exp
    monkeypatch.setattr(manifolds.Sphere, "_exp", lambda self, x, v: real(self, x, 1.05 * v))
    with pytest.raises(CheckFailed, match="one gradient step"):
        op = _trajectory("sphere")
        op.check(op.call())


def test_ascending_sphere_trajectory_fails(monkeypatch):
    real = manifolds.Sphere._exp
    monkeypatch.setattr(manifolds.Sphere, "_exp", lambda self, x, v: real(self, x, -v))
    with pytest.raises(CheckFailed, match="value increased"):
        op = _trajectory("sphere")
        op.check(op.call())


def test_hyperboloid_step_off_the_geodesic_length_fails(monkeypatch):
    real = manifolds.Hyperboloid._exp
    monkeypatch.setattr(manifolds.Hyperboloid, "_exp", lambda self, x, v: real(self, x, 1.0001 * v))
    with pytest.raises(CheckFailed, match=r"\(1 - eta\)\^2"):
        op = _certify("hyperboloid")
        op.check(op.call())
    with pytest.raises(CheckFailed, match=r"\(1 - eta\)\^k"):
        op = _trajectory("hyperboloid")
        op.check(op.call())


def test_euclidean_trajectory_off_the_linear_recursion_fails(monkeypatch):
    monkeypatch.setattr(manifolds.Euclidean, "_exp", lambda self, x, v: x + 0.99 * v)
    with pytest.raises(CheckFailed, match="drift from"):
        op = _trajectory("euclidean")
        op.check(op.call())


def test_wrong_objective_value_fails_the_fresh_point_check(monkeypatch):
    op = _certify("euclidean")
    cert = op.call()
    real = objectives.Objective.value
    monkeypatch.setattr(objectives.Objective, "value", lambda self, x: 3.0 * real(self, x))
    with pytest.raises(CheckFailed, match="weak-strong-convexity"):
        op.check(cert)


def test_recorded_distance_disagreeing_with_arccos_fails(monkeypatch):
    real = manifolds.Sphere._dist
    monkeypatch.setattr(manifolds.Sphere, "_dist", lambda self, x, y: real(self, x, y) * (1.0 + 1e-6))
    with pytest.raises(CheckFailed, match="recorded distances"):
        op = _trajectory("sphere")
        op.check(op.call())


def test_workers_changing_the_certificate_fails(monkeypatch, cli_ops):
    real = cli.certify_region

    def seed_by_workers(obj, region, eta, n, seed, *, workers=1, **kwargs):
        return real(obj, region, eta, n, seed + workers - 1, workers=workers, **kwargs)

    monkeypatch.setattr(cli, "certify_region", seed_by_workers)
    st = _one_round(cli_ops["euclidean"])
    assert st.failed == 1 and st.wrong == 1


def test_missing_report_fails(monkeypatch, cli_ops):
    monkeypatch.setattr(cli, "write_trajectory_json", lambda traj, out: None)
    assert _failed([cli_ops["run-euclidean"]]) == 1


def test_operation_that_raises_is_counted_failed():
    # a hyperboloid radius past the trusted chart raises from inside sampling
    prob = workloads.Problem("hyperboloid", {"target": np.array([0.0, 0.0, 1.0])}, 7.7)
    st = _one_round([workloads.certify_op("hyperboloid-7.7", prob, 200, 1)])
    assert (st.attempted, st.failed, st.wrong) == (1, 1, 0)
