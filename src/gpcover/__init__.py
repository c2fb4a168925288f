"""Decentralized multi-agent coverage control with local sparse-GP learning."""

from .config import SimConfig, config_from_dict
from .consensus import ConsensusConfig, consensus_step
from .control import OptimizerState, Phase, plateau_detected, record_std, step
from .cost import (CellCostReport, QuadratureSpec, cell_cost_report, expected_cost,
                   mass_centroid, true_locational_cost, variance_cost)
from .density import (DensityField, GaussianBlob, GaussianMixture, bilinear,
                      build_scenario)
from .errors import (ConfigurationError, DecentralizationError, GPCoverError,
                     OutsideDomainError, SingularityError)
from .geometry import (CellPixels, Domain, VoronoiPartition, cell_pixels,
                       compute_partition, laplacian_of)
from .gp import (Hyperparams, SparseGP, greedy_select, kernel_matrix, log_marginal_likelihood,
                 merge_inducing, posterior, posterior_mean, refit_hyperparams, smw_extend)
from .sim import (AccessAudit, AgentState, SimTrace, initial_positions, run,
                  run_lloyd_baseline, sample_density)
from .cli import run_batch

__version__ = "0.1.0"

__all__ = [
    "AccessAudit", "AgentState", "CellCostReport", "CellPixels", "ConfigurationError",
    "ConsensusConfig", "DecentralizationError", "DensityField", "Domain",
    "GPCoverError", "GaussianBlob", "GaussianMixture", "Hyperparams",
    "OptimizerState", "OutsideDomainError", "Phase", "QuadratureSpec",
    "SimConfig", "SimTrace", "SingularityError", "SparseGP", "VoronoiPartition",
    "bilinear", "build_scenario", "cell_cost_report", "cell_pixels",
    "compute_partition", "config_from_dict", "consensus_step", "expected_cost",
    "greedy_select", "initial_positions", "kernel_matrix", "laplacian_of",
    "log_marginal_likelihood", "mass_centroid", "merge_inducing", "plateau_detected",
    "posterior", "posterior_mean", "record_std", "refit_hyperparams", "run",
    "run_batch", "run_lloyd_baseline", "sample_density", "smw_extend", "step",
    "true_locational_cost", "variance_cost",
]
