"""Command-line entry point.

Commands:
  certify   sample a region around the minimizer and write a certificate JSON
  run       record one gradient-descent trajectory to CSV + JSON
  selftest  re-run the package's invariant suite at reduced scale

Exit codes for certify: 0 certified, 1 refuted, 2 inconclusive, 3 input error.
run exits 1 on divergence or an early stop (the trajectory is still written),
selftest 1 on any failed property; 3 always means the inputs were rejected
before any computation.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .certify import TOOL_VERSION, CertificationError, _draw, certify_region, resolve_gamma
from .config import ConfigError, ExperimentConfig, load_config
from .descent import NoContractionError, StepSizePolicy, auto_step_policy, contraction_rate, run as run_trajectory
from .manifolds import ManifoldError, ManifoldPoint
from .objectives import ObjectiveError
from .reporting import write_certificate, write_trajectory_csv, write_trajectory_json
from .selftest import run_selftest

__all__ = ["main"]

EXIT_CERTIFIED = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3

_VERDICT_EXIT = {"certified": EXIT_CERTIFIED, "refuted": EXIT_REFUTED, "inconclusive": EXIT_INCONCLUSIVE}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default, which collides with the
    # "inconclusive" code; route usage errors through the input-error path
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="geodescent", description="Riemannian descent with convexity certification")
    parser.add_argument("--version", action="version", version=f"%(prog)s {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True, help="experiment config JSON")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--samples", type=int, help="override n_samples")
        sp.add_argument("--eta", help='override the step size (number or "auto")')
        sp.add_argument("--out", help="override the output directory")
        sp.add_argument("--quiet", action="store_true", help="suppress the summary line")

    certify = sub.add_parser("certify", help="certify weak-strong-convexity on a region")
    add_common(certify)
    certify.add_argument("--workers", type=int, help="accepted, never changes the result (samples run on one thread)")

    runp = sub.add_parser("run", help="record one descent trajectory")
    add_common(runp)
    runp.add_argument("--steps", type=int, help="override n_steps")

    selftest = sub.add_parser("selftest", help="run the reduced invariant suite")
    selftest.add_argument("--quiet", action="store_true", help="print only failures")
    return parser


def _overrides(args) -> dict:
    out = {
        "seed": getattr(args, "seed", None),
        "n_samples": getattr(args, "samples", None),
        "out": getattr(args, "out", None),
        "workers": getattr(args, "workers", None),
        "n_steps": getattr(args, "steps", None),
    }
    eta = getattr(args, "eta", None)
    if eta is not None:
        if eta == "auto":
            out["eta"] = "auto"
        else:
            try:
                out["eta"] = float(eta)
            except ValueError:
                raise ConfigError(f'flag --eta must be a number or "auto", got {eta!r}')
    return out


def _cmd_certify(cfg: ExperimentConfig, quiet: bool) -> int:
    cert = certify_region(
        cfg.objective,
        cfg.region,
        cfg.eta,
        cfg.n_samples,
        cfg.seed,
        workers=cfg.workers,
        gamma_override=cfg.gamma,
        tol_residual=cfg.tol_residual,
    )
    path = write_certificate(cert, cfg.out_dir)
    if not quiet:
        a = "n/a" if cert.a is None else f"{cert.a:.6g}"
        mu = "n/a" if cert.mu is None else f"{cert.mu:.6g}"
        c = "n/a" if cert.c_obs is None else f"{cert.c_obs:.6g}"
        rmin = "n/a" if cert.residual_min is None else f"{cert.residual_min:.3e}"
        print(
            f"verdict={cert.verdict} c_obs={c} a={a} mu={mu} "
            f"residual_min={rmin} samples={cert.n_samples} seed={cert.seed} -> {path}"
        )
    return _VERDICT_EXIT[cert.verdict]


def _cmd_run(cfg: ExperimentConfig, quiet: bool) -> int:
    if cfg.eta == "auto":
        gamma, _source = resolve_gamma(cfg.objective, cfg.region, cfg.seed, cfg.gamma)
        policy = auto_step_policy(cfg.objective, cfg.region, gamma)
    else:
        policy = StepSizePolicy(mode="fixed", eta=float(cfg.eta))
    x0 = ManifoldPoint(cfg.region.center.manifold, _draw(cfg.region, 1, cfg.seed)[0])  # certify's sample 0
    traj = run_trajectory(cfg.objective, x0, policy, cfg.n_steps, region=cfg.region, seed=cfg.seed)
    csv_path = write_trajectory_csv(traj, cfg.out_dir)
    write_trajectory_json(traj, cfg.out_dir)

    if traj.stop_reason != "completed":
        print(f"run aborted: {traj.stop_reason} (trajectory written to {csv_path})", file=sys.stderr)
        return EXIT_REFUTED
    try:
        c_obs = f"{contraction_rate(traj):.6g}"
    except NoContractionError as e:
        print(f"run diverged: {e} (trajectory written to {csv_path})", file=sys.stderr)
        return EXIT_REFUTED
    except ValueError:
        c_obs = "n/a"  # started at the minimizer; nothing to contract
    if not quiet:
        final = traj.steps[-1].dist_to_min
        print(f"steps={len(traj.steps) - 1} final_dist={final:.6e} c_obs={c_obs} -> {csv_path}")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "selftest":
            return run_selftest(quiet=args.quiet)
        cfg = load_config(args.config, _overrides(args))
        if args.command == "certify":
            return _cmd_certify(cfg, args.quiet)
        return _cmd_run(cfg, args.quiet)
    except (ConfigError, CertificationError, ObjectiveError, ManifoldError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
