"""Wasserstein-like geometry on von Mises-Fisher distributions.

Distances, geodesic interpolation, barycenters, mixture reduction, EM
fitting, and the synthetic experiments that exercise them end to end.
"""

from .barycenter import (BarycenterResult, FrechetMeanResult, barycenter, frechet_mean,
                         optimal_kappa)
from .bessel import log_bessel_i, mean_resultant_ratio
from .core import (SampleSet, VmfMixture, VmfParams, log_density,
                   log_normalizing_constant, sample, sample_mixture)
from .fit_eval import (FitConfig, FitResult, MdsResult, bic, fit_em, fit_em_many, kappa_mle,
                       knn_predict, mds_embed, mixture_log_likelihood,
                       mixture_log_pdf)
from .geometry import (AntipodalMeansError, DistanceMatrix, TangentVector,
                       exp_map, geodesic_distance, l2_distance, l2_distance_mc, log_map,
                       pairwise_matrix, wl_distance, wl_interpolate)
from .reduction import (Partition, ReductionTrace, TraceEvent, greedy_reduce,
                        hclust_single_linkage, kmedoids, partitional_reduce)

__version__ = "0.1.0"

__all__ = [
    "AntipodalMeansError", "BarycenterResult",
    "DistanceMatrix", "FitConfig", "FitResult", "FrechetMeanResult",
    "MdsResult", "Partition", "ReductionTrace", "SampleSet", "TangentVector",
    "TraceEvent", "VmfMixture", "VmfParams", "barycenter", "bic", "exp_map",
    "fit_em", "fit_em_many", "frechet_mean", "geodesic_distance", "greedy_reduce",
    "hclust_single_linkage", "kappa_mle", "kmedoids", "knn_predict",
    "l2_distance", "l2_distance_mc", "log_bessel_i", "log_density", "log_map",
    "log_normalizing_constant", "mds_embed", "mean_resultant_ratio",
    "mixture_log_likelihood", "mixture_log_pdf", "optimal_kappa",
    "pairwise_matrix", "partitional_reduce", "sample", "sample_mixture",
    "wl_distance", "wl_interpolate",
]
