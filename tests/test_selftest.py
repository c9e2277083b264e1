"""The invariant checks: selftest's clean pass, the checks at full scale, and fault injection.

The checks in `geodescent.selftest` are the battery's property tests too:
`run_selftest` runs them at N = 100 samples, the parametrized test below at
the scale the battery needs (AC04-AC06 call theirs in test_acceptance.py).
The fault table patches a primitive and asserts the exact set of checks that
notice, so a check that always passes would show up here.
"""

import pytest

import geodescent.curvature as curvature
import geodescent.manifolds as manifolds
from geodescent.cli import main
from geodescent.manifolds import TangentVector
from geodescent.objectives import Objective
from geodescent.selftest import CHECKS, run_selftest

EXPECTED = {
    "geometry-round-trip",
    "geometry-distance-consistency",
    "geometry-transport",
    "geometry-triangle-inequality",
    "curvature-reference-values",
    "lemma2-flat-exactness",
    "lemma2-curved-bound",
    "objective-gradients",
    "forward-contraction-flat",
    "forward-contraction-hyperbolic",
    "converse-round-trip",
    "certificates-end-to-end",
    "preconditioned-routes",
    "determinism",
}

# samples per manifold / objective / draw; never below the selftest's N
FULL_SCALE = {
    "geometry-round-trip": 200,
    "geometry-distance-consistency": 200,
    "geometry-transport": 200,
    "geometry-triangle-inequality": 200,
    "lemma2-flat-exactness": 200,
    "lemma2-curved-bound": 200,
    "objective-gradients": 100,
    "preconditioned-routes": 100,
    "determinism": 128,
}


def collect(quiet=False):
    lines = []
    ret = run_selftest(quiet=quiet, emit=lines.append)
    return ret, lines


def test_check_catalog():
    assert {name for name, _ in CHECKS} == EXPECTED
    assert len(CHECKS) == 14


@pytest.mark.parametrize("name", sorted(FULL_SCALE))
def test_check_at_full_scale(name):
    assert dict(CHECKS)[name](FULL_SCALE[name]) is None


def test_selftest_passes_clean():
    ret, lines = collect()
    assert ret == 0
    passes = [ln for ln in lines if ln.startswith("PASS ")]
    assert len(passes) == 14
    assert {ln.split()[1] for ln in passes} == EXPECTED
    assert "14/14 properties passed" in lines[-1]


def test_selftest_quiet_emits_only_summary():
    ret, lines = collect(quiet=True)
    assert ret == 0
    assert len(lines) == 1
    assert lines[0].startswith("selftest: 14/14")


def _stretched(real):
    # the same tangent vector, 0.1% longer
    def faulty(*args):
        out = real(*args)
        return TangentVector(out.base, 1.001 * out.coords)
    return faulty


# fault -> (owner, attribute, faulty replacement of the real one, exactly the checks that fail)
FAULTS = {
    "wrong-curvature-constant": (
        curvature, "delta_bar", lambda real: (lambda k_max, d: 0.5), {"curvature-reference-values"},
    ),
    "exp-map-overshoot": (
        manifolds, "exp_map", lambda real: (lambda x, v: real(x, TangentVector(x, 1.001 * v.coords))),
        {"geometry-round-trip", "geometry-distance-consistency"},
    ),
    "transport-stretch": (manifolds, "parallel_transport", _stretched, {"geometry-transport"}),
    "gradient-stretch": (Objective, "gradient", _stretched, {"objective-gradients"}),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_selftest_catches_fault(monkeypatch, fault):
    owner, attr, make, expected = FAULTS[fault]
    monkeypatch.setattr(owner, attr, make(getattr(owner, attr)))
    ret, lines = collect(quiet=True)
    assert ret == 1
    failed = {ln.split()[1].rstrip(":") for ln in lines if ln.startswith("FAIL ")}
    assert failed == expected
    assert f"{14 - len(expected)}/14" in lines[-1]


def test_cli_selftest_subcommand(capsys):
    assert main(["selftest", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "14/14 properties passed" in out
