"""Config schema validation, CLI exit codes, and report determinism."""

import csv
import io
import json
import math
import subprocess
import sys

import pytest

from geodescent import certify as certify_module
from geodescent.certify import certify_region
from geodescent.cli import main
from geodescent.config import ConfigError, load_config, parse_config
from geodescent.descent import StepSizePolicy, run
from geodescent.manifolds import Region
from geodescent.objectives import perturbed_quad, quad_euclidean
from geodescent.reporting import canonical_json, write_certificate, write_trajectory_csv, write_trajectory_json


def quad_doc(**extra):
    doc = {
        "manifold": {"kind": "euclidean", "dim": 2},
        "objective": {
            "id": "quad_euclidean",
            "params": {"q": [[1.0, 0.0], [0.0, 4.0]], "minimizer": [0.0, 0.0]},
        },
        "region": {"radius": 10.0},
    }
    doc.update(extra)
    return doc


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def strict_json(path) -> dict:
    """The JSON file at path, refusing the NaN / Infinity extension."""
    return json.loads(path.read_text(), parse_constant=_refuse)


# -------------------------------------------------------------------- config


def test_parse_applies_defaults():
    cfg = parse_config(quad_doc())
    assert cfg.eta == "auto"
    assert cfg.n_samples == 1000
    assert cfg.n_steps == 50
    assert cfg.seed == 42
    assert cfg.workers == 1
    assert cfg.gamma is None
    assert cfg.tol_residual == 1e-9
    assert cfg.out_dir == "out"
    assert cfg.region.radius == 10.0
    assert cfg.objective_id == "quad_euclidean"


def test_parse_round_trips_through_json_dict():
    cfg = parse_config(quad_doc(eta=0.25, seed=7, gamma=4.0))
    again = parse_config(cfg.to_json_dict())
    assert again.to_json_dict() == cfg.to_json_dict()


def test_parse_applies_overrides_and_ignores_none():
    cfg = parse_config(quad_doc(), overrides={"seed": 9, "eta": 0.5, "n_samples": None})
    assert cfg.seed == 9
    assert cfg.eta == 0.5
    assert cfg.n_samples == 1000


@pytest.mark.parametrize(
    "doc, needle",
    [
        (["not", "a", "mapping"], "<config>"),
        (quad_doc(bogus=1), "bogus"),
        ({"objective": quad_doc()["objective"], "region": {"radius": 1.0}}, "'manifold'"),
        (quad_doc(manifold={"kind": "torus", "dim": 2}), "'manifold'"),
        (quad_doc(objective={"id": 7, "params": {}}), "'objective.id'"),
        (quad_doc(objective={"id": "quad_euclidean", "params": {"q": True}}), "objective.params.q"),
        (quad_doc(objective={"id": "quad_euclidean", "params": {}, "solver": "x"}), "solver"),
        (quad_doc(objective={"id": "nope", "params": {}}), "'objective'"),
        (quad_doc(region={"radius": 1.0, "shape": "cube"}), "shape"),
        (quad_doc(region={"radius": True}), "'region.radius'"),
        (quad_doc(region={"radius": -1.0}), "'region.radius'"),
        (quad_doc(eta="fast"), "'eta'"),
        (quad_doc(eta=-0.5), "'eta'"),
        (quad_doc(eta=True), "'eta'"),
        (quad_doc(n_samples=0), "'n_samples'"),
        (quad_doc(n_steps="many"), "'n_steps'"),
        (quad_doc(workers=-2), "'workers'"),
        (quad_doc(seed=-1), "'seed'"),
        (quad_doc(seed=2**64), "'seed'"),
        (quad_doc(seed=True), "'seed'"),
        (quad_doc(gamma=0.0), "'gamma'"),
        (quad_doc(gamma=math.inf), "'gamma'"),
        (quad_doc(tolerances={"energy": 1e-9}), "energy"),
        (quad_doc(tolerances={"residual": 0.0}), "'tolerances.residual'"),
        (quad_doc(out=""), "'out'"),
        (quad_doc(objective={"id": "quad_euclidean", "params": {"q": [[1, 0], [0]], "minimizer": [0, 0]}}),
         "objective.params.q"),
        (quad_doc(objective={"id": "quad_euclidean", "params": {"q": [[1, "a"], [0, 4]], "minimizer": [0, 0]}}),
         "objective.params.q"),
        (quad_doc(objective={"id": "quad_euclidean", "params": {"q": [[1, {}], [0, 4]], "minimizer": [0, 0]}}),
         "objective.params.q"),
        (quad_doc(objective={"id": "quad_euclidean", "params": {"q": [[1, 0], [0, 4]], "minimizer": [[0], 0]}}),
         "objective.params.minimizer"),
        (quad_doc(objective={"id": "perturbed_quad", "params": {"q": [[1, 0], [0, 4]], "minimizer": [0, 0],
                                                                "epsilon": [0.1]}}), "epsilon must be a real scalar"),
        (quad_doc(objective={"id": "perturbed_quad", "params": {"q": [[1, 0], [0, 4]], "minimizer": [0, 0],
                                                                "omega": [1, 2]}}), "omega must be a real scalar"),
        (quad_doc(objective={"id": "quad_euclidean", "params": {"q": [["1", 0], [0, "4"]], "minimizer": [0, 0]}}),
         "objective.params.q"),
        (quad_doc(objective={"id": "quad_euclidean", "params": {"q": [[True, 0], [0, 4]], "minimizer": [0, 0]}}),
         "objective.params.q"),
        (quad_doc(objective={"id": "quad_euclidean", "params": {"q": [[1, 0], [0, 4]], "minimizer": [0, "0"]}}),
         "objective.params.minimizer"),
        (quad_doc(objective={"id": "quad_euclidean", "params": {"q": [[None, 0], [0, 4]], "minimizer": [0, 0]}}),
         "objective.params.q"),
        (quad_doc(objective={"id": "quad_euclidean", "params": {"q": [[1, 0], [0, 4]], "minimizer": [0, 10**400]}}),
         "objective.params.minimizer"),
        (quad_doc(objective={"id": "perturbed_quad", "params": {"q": [[1, 0], [0, 4]], "minimizer": [0, 0],
                                                                "epsilon": 10**400}}), "objective.params.epsilon"),
        (quad_doc(manifold={"kind": "hyperboloid", "dim": 2},
                  objective={"id": "sqdist_hyperboloid", "params": {"target": [0, 0, 1e200]}}), "'objective'"),
    ],
)
def test_parse_rejects_bad_documents(doc, needle):
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert needle in str(info.value)


def test_parse_rejects_sphere_region_beyond_curvature_bound():
    doc = {
        "manifold": {"kind": "sphere", "dim": 2},
        "objective": {"id": "rayleigh_sphere", "params": {"matrix": [[3, 0, 0], [0, 2.5, 0], [0, 0, 1]]}},
        "region": {"radius": 0.8},
    }
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert "region.radius" in str(info.value)
    assert "pi/(4*sqrt(k_max))" in str(info.value)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError) as info:
        load_config(str(tmp_path / "absent.json"))
    assert "cannot read" in str(info.value)


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"manifold": ')
    with pytest.raises(ConfigError) as info:
        load_config(str(path))
    assert "not valid JSON" in str(info.value)


# ----------------------------------------------------------------------- CLI


def test_cli_certify_quad(tmp_path, capsys):
    cfg = write_doc(tmp_path, quad_doc(eta=0.25, n_samples=200, out=str(tmp_path / "out")))
    assert main(["certify", "--config", cfg]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("verdict=certified ")
    assert "seed=42" in line
    assert (tmp_path / "out" / "certificate.json").exists()


def test_cli_certify_quiet(tmp_path, capsys):
    cfg = write_doc(tmp_path, quad_doc(eta=0.25, n_samples=100, out=str(tmp_path / "out")))
    assert main(["certify", "--config", cfg, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_certify_auto_eta_on_sphere(tmp_path, capsys):
    doc = {
        "manifold": {"kind": "sphere", "dim": 2},
        "objective": {"id": "rayleigh_sphere", "params": {"matrix": [[3, 0, 0], [0, 2.5, 0], [0, 0, 1]]}},
        "region": {"radius": 0.15 * math.pi},
        "n_samples": 300,
        "out": str(tmp_path / "out"),
    }
    assert main(["certify", "--config", write_doc(tmp_path, doc)]) == 0
    assert "verdict=certified" in capsys.readouterr().out


def test_cli_certify_auto_eta_estimates_gamma_once(tmp_path, monkeypatch):
    calls = []
    real = certify_module.estimate_gamma

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(certify_module, "estimate_gamma", counted)
    doc = {
        "manifold": {"kind": "sphere", "dim": 2},
        "objective": {"id": "rayleigh_sphere", "params": {"matrix": [[3, 0, 0], [0, 2.5, 0], [0, 0, 1]]}},
        "region": {"radius": 0.4},
        "n_samples": 50,
        "out": str(tmp_path / "out"),
    }
    assert main(["certify", "--config", write_doc(tmp_path, doc), "--quiet"]) == 0
    assert len(calls) == 1


def test_cli_auto_eta_matches_library_auto_eta(tmp_path):
    doc = {
        "manifold": {"kind": "hyperboloid", "dim": 2},
        "objective": {"id": "sqdist_hyperboloid", "params": {"target": [0.0, 0.0, 1.0]}},
        "region": {"radius": 1.5},
        "n_samples": 80,
        "seed": 9,
        "out": str(tmp_path / "out"),
    }
    assert main(["certify", "--config", write_doc(tmp_path, doc), "--quiet"]) == 0
    from_cli = json.loads((tmp_path / "out" / "certificate.json").read_text())
    cfg = load_config(write_doc(tmp_path, doc))
    auto = certify_region(cfg.objective, cfg.region, "auto", 80, 9)
    explicit = certify_region(cfg.objective, cfg.region, from_cli["eta_used"], 80, 9)
    assert canonical_json(from_cli) == canonical_json(auto.to_json_dict())
    assert canonical_json(auto.to_json_dict()) == canonical_json(explicit.to_json_dict())


def test_cli_hyperboloid_region_beyond_chart_exit_three(tmp_path, capsys):
    doc = {
        "manifold": {"kind": "hyperboloid", "dim": 2},
        "objective": {"id": "sqdist_hyperboloid", "params": {"target": [0.0, 0.0, 1.0]}},
        "region": {"radius": 7.7},
        "n_samples": 20,
        "out": str(tmp_path / "out"),
    }
    assert main(["certify", "--config", write_doc(tmp_path, doc)]) == 3
    assert "chart limit" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_hyperboloid_target_with_overflowing_time_exit_three(tmp_path, capsys):
    doc = {
        "manifold": {"kind": "hyperboloid", "dim": 2},
        "objective": {"id": "sqdist_hyperboloid", "params": {"target": [0.0, 0.0, 1e200]}},
        "region": {"radius": 1.0},
        "out": str(tmp_path / "out"),
    }
    assert main(["certify", "--config", write_doc(tmp_path, doc)]) == 3
    assert "hyperboloid point must satisfy" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def tiny_sphere_doc(tmp_path, radius):
    return {
        "manifold": {"kind": "sphere", "dim": 2},
        "objective": {"id": "rayleigh_sphere", "params": {"matrix": [[3, 0, 0], [0, 2.5, 0], [0, 0, 1]]}},
        "region": {"radius": radius},
        "gamma": None,
        "out": str(tmp_path / "out"),
    }


@pytest.mark.parametrize("command", ["certify", "run"])
@pytest.mark.parametrize("radius", [0.0, 1e-7, 5e-7, 6e-7, 1e-6, 1.9e-6])
def test_cli_region_too_small_to_estimate_gamma_exit_three(tmp_path, capsys, command, radius):
    doc = tiny_sphere_doc(tmp_path, radius)
    assert main([command, "--config", write_doc(tmp_path, doc)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "set gamma" in err
    assert "Traceback" not in err
    doc["gamma"] = 2.0
    assert main(["certify", "--config", write_doc(tmp_path, doc), "--quiet"]) == 0


def test_cli_certify_inconclusive_exit(tmp_path):
    doc = quad_doc(
        objective={
            "id": "perturbed_quad",
            "params": {"q": [[1.0, 0.0], [0.0, 4.0]], "minimizer": [0.0, 0.0],
                       "epsilon": 0.4, "omega": 5.0},
        },
        region={"radius": 1.0},
        eta=1.0 / 24.0,
        n_samples=500,
        out=str(tmp_path / "out"),
    )
    assert main(["certify", "--config", write_doc(tmp_path, doc), "--quiet"]) == 2
    # values that overflow make a certificate inconclusive too, written as strict JSON
    for radius in (1e154, 1e160):
        doc = quad_doc(region={"radius": radius}, eta=0.25, n_samples=50, seed=1, out=str(tmp_path / str(radius)))
        assert main(["certify", "--config", write_doc(tmp_path, doc), "--quiet"]) == 2
        cert = strict_json(tmp_path / str(radius) / "certificate.json")
        assert cert["verdict"] == "inconclusive" and "non-finite-value" in cert["flags"]


def test_cli_certify_deterministic_across_runs_and_workers(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    cfg = write_doc(tmp_path, quad_doc(eta=0.25, n_samples=200))
    assert main(["certify", "--config", cfg, "--quiet", "--out", str(out_a)]) == 0
    assert main(["certify", "--config", cfg, "--quiet", "--out", str(out_b)]) == 0
    assert main(["certify", "--config", cfg, "--quiet", "--out", str(out_c), "--workers", "4"]) == 0

    def canon(d):
        return canonical_json(json.loads((d / "certificate.json").read_text()))

    assert canon(out_a) == canon(out_b) == canon(out_c)


def test_cli_flag_overrides_beat_config(tmp_path, capsys):
    cfg = write_doc(tmp_path, quad_doc(eta=0.25, n_samples=500, out=str(tmp_path / "out")))
    assert main(["certify", "--config", cfg, "--samples", "50", "--seed", "5"]) == 0
    line = capsys.readouterr().out
    assert "samples=50" in line
    assert "seed=5" in line


def test_cli_run_writes_trajectory(tmp_path, capsys):
    cfg = write_doc(tmp_path, quad_doc(eta=0.25, n_steps=100, out=str(tmp_path / "run")))
    assert main(["run", "--config", cfg]) == 0
    line = capsys.readouterr().out
    assert "steps=100" in line
    with open(tmp_path / "run" / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 102  # header + initial record + 100 steps
    assert rows[0] == ["step", "x0", "x1", "f", "grad_norm", "dist_to_min", "eta"]
    assert (tmp_path / "run" / "trajectory.json").exists()


def test_cli_run_hyperboloid_one_step_convergence(tmp_path, capsys):
    doc = {
        "manifold": {"kind": "hyperboloid", "dim": 2},
        "objective": {"id": "sqdist_hyperboloid", "params": {"target": [0.0, 0.0, 1.0]}},
        "region": {"radius": 2.0},
        "eta": 1.0,
        "n_steps": 3,
        "out": str(tmp_path / "run"),
    }
    assert main(["run", "--config", write_doc(tmp_path, doc)]) == 0
    capsys.readouterr()
    with open(tmp_path / "run" / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    dist_col = rows[0].index("dist_to_min")
    assert float(rows[2][dist_col]) <= 1e-12  # unit step on sqdist lands on the minimizer


def test_cli_run_divergence_exit(tmp_path, capsys):
    cfg = write_doc(tmp_path, quad_doc(eta=10.0, n_steps=20, out=str(tmp_path / "run")))
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "run diverged" in err or "run aborted" in err


def test_cli_run_writes_the_trajectory_when_a_gradient_overflows(tmp_path, capsys):
    # inside radius 4, eta 1e307 keeps x1 finite, but the gradient 4 * x1 overflows
    cfg = write_doc(tmp_path, quad_doc(region={"radius": 4.0}, eta=1e307, n_steps=5, out=str(tmp_path / "run")))
    assert main(["run", "--config", cfg]) == 1
    assert "run aborted: gradient-error: tangent coordinates must be finite" in capsys.readouterr().err
    doc = strict_json(tmp_path / "run" / "trajectory.json")
    assert doc["stop_reason"] == "gradient-error: tangent coordinates must be finite"
    assert len(doc["steps"]) == 2
    assert doc["steps"][1]["gradient_norm"] is None  # inf in the CSV


def test_cli_run_perturbed_quad_whose_gradient_overflows_stops_with_a_gradient_error(tmp_path, capsys):
    # at seed 5, 2 * omega * x_1 overflows at a finite iterate, where sin gives NaN
    pert = {"id": "perturbed_quad", "params": {"q": [[1.0, 0.0], [0.0, 4.0]], "minimizer": [0.0, 0.0], "epsilon": 0.3}}
    doc = quad_doc(objective=pert, region={"radius": 1.0}, eta=1e307, seed=5, out=str(tmp_path / "run"))
    assert main(["run", "--config", write_doc(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert "run aborted: gradient-error: tangent coordinates must be finite" in err
    assert "Traceback" not in err
    traj = strict_json(tmp_path / "run" / "trajectory.json")
    assert traj["stop_reason"] == "gradient-error: tangent coordinates must be finite"


def test_cli_run_start_whose_distance_overflows_exit_three(tmp_path, capsys):
    # the drawn start lies inside radius 1e160, but its distance from the center overflows
    cfg = write_doc(tmp_path, quad_doc(region={"radius": 1e160}, eta=0.25, out=str(tmp_path / "run")))
    assert main(["run", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: x0 lies outside the declared region: its distance inf from the center")
    assert "radius 1e+160" in err
    assert not (tmp_path / "run").exists()


def test_cli_certify_radius_whose_draw_overflows_exit_three(tmp_path, capsys):
    cfg = write_doc(tmp_path, quad_doc(region={"radius": 1e308}, seed=1, n_samples=50, out=str(tmp_path / "out")))
    assert main(["certify", "--config", cfg]) == 3
    assert capsys.readouterr().err == "error: region radius 1e+308 is too large to sample: a drawn point overflows\n"
    assert not (tmp_path / "out").exists()


def test_cli_run_non_finite_start_exit_three(tmp_path, capsys):
    huge = {"id": "quad_euclidean", "params": {"q": [[1e307, 0.0], [0.0, 1e307]], "minimizer": [0.0, 0.0]}}
    cfg = write_doc(tmp_path, quad_doc(objective=huge, eta=0.1, out=str(tmp_path / "run")))
    assert main(["run", "--config", cfg]) == 3
    assert "not finite at x0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_run_from_degenerate_region(tmp_path, capsys):
    cfg = write_doc(tmp_path, quad_doc(region={"radius": 0.0}, eta=0.25, out=str(tmp_path / "run")))
    assert main(["run", "--config", cfg]) == 0
    assert "c_obs=n/a" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--config", "/nonexistent/config.json"],
        ["frobnicate"],
        [],
        ["certify"],
    ],
)
def test_cli_input_errors_exit_three(argv, capsys):
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_cli_bad_eta_flag(tmp_path, capsys):
    cfg = write_doc(tmp_path, quad_doc())
    assert main(["certify", "--config", cfg, "--eta", "fast"]) == 3
    assert "--eta" in capsys.readouterr().err


def test_cli_bad_json_exit_three(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    assert main(["certify", "--config", str(path)]) == 3
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_sphere_radius_violation_exit_three(tmp_path, capsys):
    doc = {
        "manifold": {"kind": "sphere", "dim": 2},
        "objective": {"id": "rayleigh_sphere", "params": {"matrix": [[3, 0, 0], [0, 2.5, 0], [0, 0, 1]]}},
        "region": {"radius": 0.8},
    }
    assert main(["certify", "--config", write_doc(tmp_path, doc)]) == 3
    assert "pi/(4*sqrt(k_max))" in capsys.readouterr().err


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "geodescent 0.2.0" in capsys.readouterr().out


def test_cli_module_entry_point(tmp_path):
    # python -m geodescent passes main()'s exit code through to the shell
    for doc, code in ((quad_doc(eta=0.25, n_samples=50, out=str(tmp_path / "out")), 0),
                      (tiny_sphere_doc(tmp_path, 1e-7), 3)):
        proc = subprocess.run(
            [sys.executable, "-m", "geodescent", "certify", "--config", write_doc(tmp_path, doc), "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr


# ----------------------------------------------------------------- reporting


def test_canonical_json_strips_timestamp_and_whitespace():
    doc = {"b": 1, "a": [1.5, None], "created_at": "2026-01-01T00:00:00+00:00"}
    assert canonical_json(doc) == '{"a":[1.5,null],"b":1}'


def test_write_certificate_file_matches_canonical_form(tmp_path):
    obj = quad_euclidean([[1.0, 0.0], [0.0, 4.0]], [0.0, 0.0])
    cert = certify_region(obj, Region(obj.metadata.minimizer, 10.0), 0.25, 64, seed=1)
    path = write_certificate(cert, str(tmp_path / "out"))
    on_disk = json.loads(open(path).read())
    assert "created_at" in on_disk
    assert canonical_json(on_disk) == canonical_json(cert.to_json_dict())


def _reference_csv(traj) -> bytes:
    """trajectory.csv rebuilt through csv.writer, one repr(float(x)) per number."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    ambient = len(traj.steps[0].point.coords)
    writer.writerow(["step"] + [f"x{i}" for i in range(ambient)] + ["f", "grad_norm", "dist_to_min", "eta"])
    for rec in traj.steps:
        numbers = [*rec.point.coords, rec.value, rec.gradient_norm, rec.dist_to_min, rec.eta_used]
        writer.writerow([rec.index] + [repr(float(x)) for x in numbers])
    return buf.getvalue().encode()


Q14 = [[1.0, 0.0], [0.0, 4.0]]
WRITER_CASES = {
    # name: (objective, x0, policy, n_steps, stop_reason prefix, numbers the CSV must hold)
    "completed": (quad_euclidean(Q14, [0.0, 0.0]), [1.0, -2.0], StepSizePolicy(mode="fixed", eta=0.1), 70,
                  "completed", ()),
    "one-record": (quad_euclidean(Q14, [0.0, 0.0]), [1.0, 1.0], StepSizePolicy(mode="prop1", a=1e308, gamma=1e-308),
                   5, "step-error: step size must be finite", ("inf",)),
    "non-finite-value": (quad_euclidean(Q14, [1.0, 1.0]), [2.0, 2.0], StepSizePolicy(mode="fixed", eta=1e160), 10,
                         "non-finite-value", ("inf",)),
    "gradient-error": (perturbed_quad(Q14, [0.0, 0.0], epsilon=0.3), [0.75, 0.0],
                       StepSizePolicy(mode="fixed", eta=1e307), 5,
                       "gradient-error: tangent coordinates must be finite", ("inf", "nan")),
}


@pytest.mark.parametrize("case", WRITER_CASES)
def test_trajectory_files_match_an_independent_writer(tmp_path, case):
    obj, x0, policy, n_steps, stop_reason, non_finite = WRITER_CASES[case]
    traj = run(obj, obj.manifold.point(x0), policy, n_steps)
    assert traj.stop_reason.startswith(stop_reason)
    out = str(tmp_path / "out")
    with open(write_trajectory_csv(traj, out), "rb") as fh:
        csv_bytes = fh.read()
    assert csv_bytes == _reference_csv(traj)
    fields = {field for row in csv.reader(io.StringIO(csv_bytes.decode())) for field in row[1:]}
    assert set(non_finite) <= fields
    write_trajectory_json(traj, out)
    on_disk = strict_json(tmp_path / "out" / "trajectory.json")
    assert "created_at" in on_disk
    assert canonical_json(on_disk) == canonical_json(traj.to_json_dict())
    if non_finite:  # written as null
        last = on_disk["steps"][-1]
        assert None in (last["value"], last["gradient_norm"], last["eta_used"])
