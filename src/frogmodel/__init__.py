"""Continuous-time frog model on the integer line: simulation, the companion
totally asymmetric discrete inhomogeneous Boolean percolation (TADIBP),
explosion-regime diagnostics, and closed-form probability bounds."""

__version__ = "0.1.0"

from .distributions import (CountBatch, Dirac, Geometric, InitialDistribution,
                            LogPareto, Poisson, TablePMF, YLogY,
                            dist_from_config)
from .frogsim import (ActivationRecord, FrogConfig, RegimeReport,
                      regime_diagnostic, simulate)
from .speed import SpeedFunction
from .tadibp import (GrainField, chain_connected, connected_to_horizon,
                     dry_probability, overshoot_sequence,
                     percolation_sequence, sample_grain_fields, wet_mask)
from .walks import (ReachResult, TailEstimate, Trajectory, estimate_reach_tail,
                    fast_reach, reach_batch, sample_trajectory)

__all__ = [
    "ActivationRecord", "CountBatch", "Dirac", "FrogConfig", "Geometric",
    "GrainField", "InitialDistribution", "LogPareto", "Poisson", "ReachResult",
    "RegimeReport", "SpeedFunction", "TablePMF", "TailEstimate", "Trajectory",
    "YLogY", "chain_connected", "connected_to_horizon", "dist_from_config",
    "dry_probability", "estimate_reach_tail", "fast_reach",
    "overshoot_sequence", "percolation_sequence", "reach_batch",
    "regime_diagnostic", "sample_grain_fields",
    "sample_trajectory", "simulate", "wet_mask",
]
