"""Return-time and cluster statistics of chaotic maps on shrinking targets.

Simulation of a*x mod 1, a torus skew product over a*y mod 1, coupled map
lattices (a single expanding interval map is a one-site lattice) and
symbolic regenerative processes, together with the compound Poisson limit
laws their return-time statistics converge to (Polya-Aeppli is the compound
Poisson law over geometric clusters), and estimators + goodness-of-fit
tooling to compare the two.
"""

from .distributions import (ClusterSizeDist, DiscreteDistribution, compound_poisson_pmf,
                            empirical_distribution)
from .dynamics import (CmlSpec, CmlSystem, IntervalMap, LinearInterval,
                       LinearMod1System, SinePerturbedInterval, TorusAffineSystem)
from .estimators import ClusterStats, cluster_statistics, counting_distribution
from .regenerative import (RegenSpec, SymbolStream, generate_stationary,
                           level_measure, regen_cluster_stats)
from .cml_theory import ExpansionWarning, alpha_hat_integral, cml_prediction
from .stats import GofReport, chi_square_gof, total_variation
from .targets import (Ball, DiagonalStrip, MeasureEstimate, TargetSet,
                      TorusStrip, measure)
from .config import ExperimentConfig
from .rngstreams import trial_rng

__version__ = "0.1.0"
