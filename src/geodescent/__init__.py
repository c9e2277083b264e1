"""Riemannian gradient descent with contraction-based convexity certification.

The package verifies, in both directions, the link between linear convergence
of gradient descent and weak-strong-convexity of the objective: descend and
measure the contraction, or reconstruct the convexity constants from an
observed rate and check the defining inequality where you stand. Four
constant-curvature geometries (Euclidean, flat non-identity metric, sphere,
hyperboloid) exercise every branch of the curvature corrections.
"""

from .certify import (
    TOOL_VERSION,
    CertificationError,
    ConsistencyReport,
    TranslatedConstants,
    WscCertificate,
    certify_region,
    consistency_check,
    converse_parameters,
    descent_lemma_residual,
    distance_growth_residual,
    preconditioned_equivalence,
    resolve_gamma,
    translate_constants,
    weaker_smoothness_residual,
    wsc_residual,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .curvature import (
    CurvatureDomainError,
    TriangleCheck,
    delta_bar,
    lemma2_residual,
    zeta,
)
from .descent import (
    NoContractionError,
    StepRecord,
    StepSizeError,
    StepSizePolicy,
    Trajectory,
    auto_step_policy,
    contraction_rate,
    gd_step,
    rgd_step,
    run,
)
from .manifolds import (
    Euclidean,
    FlatMetric,
    Hyperboloid,
    Manifold,
    ManifoldError,
    ManifoldPoint,
    Region,
    Sphere,
    TangentVector,
    UndefinedLogarithmError,
    dist,
    exp_map,
    inner,
    log_map,
    manifold_from_descriptor,
    parallel_transport,
    project_tangent,
    sample_point,
    tangent_basis,
)
from .objectives import (
    Objective,
    ObjectiveError,
    ObjectiveMetadata,
    build,
    catalog_ids,
    estimate_gamma,
    fd_gradient_oracle,
    perturbed_quad,
    quad_euclidean,
    quad_flat_metric,
    rayleigh_sphere,
    sqdist_hyperboloid,
)
from .reporting import canonical_json, write_certificate, write_trajectory_csv, write_trajectory_json
from .selftest import run_selftest

__version__ = TOOL_VERSION

__all__ = [
    "TOOL_VERSION",
    "__version__",
    # manifolds
    "Manifold", "Euclidean", "FlatMetric", "Sphere", "Hyperboloid",
    "ManifoldPoint", "TangentVector", "Region",
    "ManifoldError", "UndefinedLogarithmError",
    "exp_map", "log_map", "dist", "parallel_transport", "inner",
    "project_tangent", "tangent_basis", "sample_point", "manifold_from_descriptor",
    # curvature
    "zeta", "delta_bar", "lemma2_residual",
    "TriangleCheck", "CurvatureDomainError",
    # objectives
    "Objective", "ObjectiveMetadata", "ObjectiveError",
    "quad_euclidean", "quad_flat_metric", "rayleigh_sphere",
    "sqdist_hyperboloid", "perturbed_quad",
    "build", "catalog_ids", "fd_gradient_oracle", "estimate_gamma",
    # descent
    "StepSizePolicy", "auto_step_policy", "StepRecord", "Trajectory",
    "StepSizeError", "NoContractionError",
    "gd_step", "rgd_step", "run", "contraction_rate",
    # certification
    "WscCertificate", "ConsistencyReport", "TranslatedConstants", "CertificationError",
    "wsc_residual", "converse_parameters", "consistency_check", "resolve_gamma",
    "certify_region", "weaker_smoothness_residual", "distance_growth_residual",
    "descent_lemma_residual", "preconditioned_equivalence", "translate_constants",
    # config / reporting / selftest
    "ExperimentConfig", "ConfigError", "parse_config", "load_config",
    "canonical_json", "write_certificate", "write_trajectory_csv", "write_trajectory_json",
    "run_selftest",
]
