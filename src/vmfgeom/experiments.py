"""Reproducible synthetic experiments over the WL geometry.

sim1: a 2x2 factorial family of vMF laws on the circle (north/south mean
direction x low/high concentration, 100 draws per cell). Pairwise WL and
exact L2 distances are each scored by the cluster purity of a
4-medoid (PAM) partition of the distance matrix itself against the known
cell labels; their 2-d classical-MDS embeddings are written as the picture.

sim2: an equal-weight 4-component vMF mixture on the circle with means at
the principal axes and concentration 10. A sample of 400 points is fitted
for K = 2..10 (best of 10 restarts); the K = 10 fit is then reduced by the
greedy and partitional methods and every model is scored by BIC.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import VmfMixture, VmfParams, sample_mixture
from .fit_eval import FitConfig, bic, fit_em, mds_embed, mixture_log_likelihood
from .formats import (write_distance_matrix, write_mixture, write_samples,
                      write_trace)
from .geometry import pairwise_matrix
from .reduction import greedy_reduce, kmedoids, partitional_reduce
from .rng import substream

SIM1_CELLS = (
    ("north-low", (15 * math.pi / 8, 17 * math.pi / 8), (0.9, 1.1)),
    ("north-high", (15 * math.pi / 8, 17 * math.pi / 8), (9.9, 10.1)),
    ("south-low", (7 * math.pi / 8, 9 * math.pi / 8), (0.9, 1.1)),
    ("south-high", (7 * math.pi / 8, 9 * math.pi / 8), (9.9, 10.1)),
)
SIM1_PER_CELL = 100

SIM2_KAPPA = 10.0
SIM2_N = 400
SIM2_FIT_RANGE = range(2, 11)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    seed: int
    output_dir: str

    def __post_init__(self):
        if self.scenario not in ("sim1", "sim2"):
            raise ValueError(f"unknown scenario {self.scenario!r}")


def _derived_seed(seed: int, *tags) -> int:
    return int(substream(seed, *tags).integers(0, 2 ** 62))


def sim1_population(seed: int):
    """400 vMF laws on the circle with their cell labels (0..3)."""
    rng = substream(seed, "sim1-params")
    laws = []
    labels = []
    for label, (_, theta_range, kappa_range) in enumerate(SIM1_CELLS):
        thetas = rng.uniform(*theta_range, size=SIM1_PER_CELL)
        kappas = rng.uniform(*kappa_range, size=SIM1_PER_CELL)
        for theta, kappa in zip(thetas, kappas):
            laws.append(VmfParams(mu=np.array([math.cos(theta), math.sin(theta)]),
                                  kappa=float(kappa)))
            labels.append(label)
    return laws, np.array(labels, dtype=np.int64)


def cluster_purity(assignment: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of points whose cluster's majority class matches their own."""
    total = 0
    for c in np.unique(assignment):
        counts = np.bincount(labels[assignment == c])
        total += int(counts.max())
    return total / labels.size


def run_sim1(seed: int, out_dir: str) -> dict:
    """Factorial-design comparison of the WL and exact L2 geometries.

    Writes the population table, both distance matrices, both embeddings,
    and a purity table; returns {'wl': purity, 'l2': purity}. Both
    distances are exact; the seed draws only the population and the PAM
    starts. Purity is scored on each distance matrix by PAM with four
    medoids, not on the embedding: the WL matrix is far from Euclidean and
    its concentration split does not lie on the top two MDS axes.
    """
    os.makedirs(out_dir, exist_ok=True)
    laws, labels = sim1_population(seed)

    wl_dm = pairwise_matrix(laws, metric="wl")
    l2_dm = pairwise_matrix(laws, metric="l2")
    write_distance_matrix(os.path.join(out_dir, "wl_matrix.csv"), wl_dm)
    write_distance_matrix(os.path.join(out_dir, "l2_matrix.csv"), l2_dm)

    with open(os.path.join(out_dir, "params.csv"), "w", encoding="utf-8") as fh:
        fh.write("type,label,mu_0,mu_1,kappa\n")
        for law, label in zip(laws, labels):
            fh.write(f"{SIM1_CELLS[label][0]},{label},{law.mu[0]:.17g},{law.mu[1]:.17g},"
                     f"{law.kappa!r}\n")

    purities = {}
    for name, dm in (("wl", wl_dm), ("l2", l2_dm)):
        assign = kmedoids(dm, 4, seed=_derived_seed(seed, "sim1-pam", name)).assignment
        purities[name] = cluster_purity(assign, labels)
        emb = mds_embed(dm, dim=2)
        np.savetxt(os.path.join(out_dir, f"{name}_embedding.csv"),
                   np.column_stack([emb.coords, labels]), delimiter=",",
                   fmt=["%.17g", "%.17g", "%d"], header="x,y,label", comments="")

    with open(os.path.join(out_dir, "purity.csv"), "w", encoding="utf-8") as fh:
        fh.write("metric,purity\n")
        for name in ("wl", "l2"):
            fh.write(f"{name},{purities[name]!r}\n")
    return purities


def sim2_truth() -> VmfMixture:
    means = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    comps = tuple(VmfParams(mu=np.array(m), kappa=SIM2_KAPPA) for m in means)
    return VmfMixture(components=comps, weights=np.full(4, 0.25))


def run_sim2(seed: int, out_dir: str) -> dict:
    """Mixture-reduction study scored by BIC.

    Writes the sample, the K = 10 reference fit, reduced mixtures and traces
    at K = 4, and the BIC table; returns the table as a dict of lists keyed
    by 'k', 'fitted', 'greedy', 'hclust', 'kmedoids'.
    """
    os.makedirs(out_dir, exist_ok=True)
    truth = sim2_truth()
    data = sample_mixture(truth, SIM2_N, seed=_derived_seed(seed, "sim2-sample"))
    write_samples(os.path.join(out_dir, "samples.csv"), data)

    fits = {k: fit_em(data, FitConfig(k=k, restarts=10,
                                      seed=_derived_seed(seed, "sim2-fit", k)))
            for k in SIM2_FIT_RANGE}
    base = fits[10].mixture
    write_mixture(os.path.join(out_dir, "fitted_k10.json"), base)

    def reduced_bic(mixture: VmfMixture) -> float:
        ll = mixture_log_likelihood(mixture, data.points)
        return bic(ll, mixture.k, mixture.d, data.n)

    table = {"k": [], "fitted": [], "greedy": [], "hclust": [], "kmedoids": []}
    reduced_at = {}
    for k in SIM2_FIT_RANGE:
        table["k"].append(k)
        table["fitted"].append(fits[k].bic)
        if k == 10:
            for method in ("greedy", "hclust", "kmedoids"):
                table[method].append(fits[10].bic)
            continue
        mix, trace = greedy_reduce(base, k)
        table["greedy"].append(reduced_bic(mix))
        reduced_at.setdefault("greedy", {})[k] = (mix, trace)
        for method in ("hclust", "kmedoids"):
            mix, trace = partitional_reduce(
                base, k, method=method,
                seed=_derived_seed(seed, "sim2-reduce", method, k))
            table[method].append(reduced_bic(mix))
            reduced_at.setdefault(method, {})[k] = (mix, trace)

    for method in ("greedy", "hclust", "kmedoids"):
        mix, trace = reduced_at[method][4]
        write_mixture(os.path.join(out_dir, f"reduced_{method}_k4.json"), mix)
        write_trace(os.path.join(out_dir, f"trace_{method}_k4.jsonl"), trace)

    with open(os.path.join(out_dir, "bic.csv"), "w", encoding="utf-8") as fh:
        fh.write("k,fitted,greedy,hclust,kmedoids\n")
        for i, k in enumerate(table["k"]):
            fh.write(f"{k},{table['fitted'][i]!r},{table['greedy'][i]!r},"
                     f"{table['hclust'][i]!r},{table['kmedoids'][i]!r}\n")
    return table


def run_experiment(cfg: ExperimentConfig) -> dict:
    if cfg.scenario == "sim1":
        return run_sim1(cfg.seed, cfg.output_dir)
    return run_sim2(cfg.seed, cfg.output_dir)
