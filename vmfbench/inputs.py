"""Input generation for the mix768 workload, built on numpy alone.

The program under test never sees a seed for these inputs: the benchmark
draws them here and hands over files. One fixed problem is drawn from
``BASE_SEED``; the run's ``--seed`` then picks a random rotation of R^768
that is applied to every vector. Each seed therefore gives other input
files, while every inner product, and so the EM iterations, the merge order
and the amount of work, stays the same up to rounding. Make-up:

* ``CLUSTERS`` orthonormal cluster directions in R^768 (QR of a Gaussian
  matrix), so any two clusters are exactly pi/2 apart.
* ``samples.csv``: ``N_SAMPLES`` points, each from vMF(center_c, SAMPLE_KAPPA)
  with c uniform over the clusters, written as bare ``%.17g`` rows (no label
  column). About 33 MB.
* ``mix300.json``: a ``N_COMPONENTS``-component mixture. Each component
  belongs to one cluster; its direction is the cluster direction turned by an
  angle in ``COMPONENT_ANGLE`` towards a random tangent direction, its
  concentration is log-uniform in ``COMPONENT_KAPPA`` and its weight uniform
  in [0.5, 1.5] before normalisation. Within a cluster every WL distance is
  below about 0.7; across clusters every one is above about 1.27, so greedy,
  single-linkage and PAM reduction to ``CLUSTERS`` components must each
  return exactly the generator's clusters.
* ``truth.json``: the cluster of every component and the cluster directions,
  read only by the output checks.
"""

import json
import os

import numpy as np

DIM = 768
CLUSTERS = 5
N_SAMPLES = 2000
SAMPLE_KAPPA = 1000.0
N_COMPONENTS = 300
COMPONENT_ANGLE = (0.05, 0.15)
COMPONENT_KAPPA = (500.0, 2000.0)
FIT_K = 20
FIT_RESTARTS = 3
BASE_SEED = 0


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), DIM, tag])


def random_rotation(seed: int) -> np.ndarray:
    """Haar-distributed orthogonal DIM x DIM matrix (QR with sign fix)."""
    q, r = np.linalg.qr(_rng(seed, 3).standard_normal((DIM, DIM)))
    return q * np.sign(np.diag(r))


def _tangent_unit(rng, center: np.ndarray, n: int) -> np.ndarray:
    """n random unit vectors orthogonal to center."""
    v = rng.standard_normal((n, center.size))
    v -= np.outer(v @ center, center)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sample_vmf(rng, mu: np.ndarray, kappa: float, n: int) -> np.ndarray:
    """Wood's (1994) rejection sampler for vMF(mu, kappa), n rows."""
    dim = mu.size - 1.0
    b = dim / (2.0 * kappa + np.sqrt(4.0 * kappa * kappa + dim * dim))
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + dim * np.log1p(-x0 * x0)
    w = np.empty(0)
    while w.size < n:
        z = rng.beta(dim / 2.0, dim / 2.0, size=n)
        cand = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        ok = kappa * cand + dim * np.log1p(-x0 * cand) - c >= np.log(rng.uniform(size=n))
        w = np.concatenate([w, cand[ok]])
    w = w[:n]
    x = w[:, None] * mu + np.sqrt(1.0 - w * w)[:, None] * _tangent_unit(rng, mu, n)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def make_mix768(seed: int, out_dir: str) -> None:
    """Write samples.csv, mix300.json and truth.json for one seed."""
    os.makedirs(out_dir, exist_ok=True)
    rot = random_rotation(seed)
    rng = _rng(BASE_SEED, 0)
    centers = np.linalg.qr(rng.standard_normal((DIM, CLUSTERS)))[0].T

    rng = _rng(BASE_SEED, 1)
    which = rng.integers(CLUSTERS, size=N_SAMPLES)
    points = np.empty((N_SAMPLES, DIM))
    for c in range(CLUSTERS):
        idx = np.nonzero(which == c)[0]
        points[idx] = sample_vmf(rng, centers[c], SAMPLE_KAPPA, idx.size)
    points = points @ rot.T
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    np.savetxt(os.path.join(out_dir, "samples.csv"), points, delimiter=",", fmt="%.17g")

    rng = _rng(BASE_SEED, 2)
    labels = rng.permutation(np.concatenate(
        [np.arange(CLUSTERS), rng.integers(CLUSTERS, size=N_COMPONENTS - CLUSTERS)]))
    angles = rng.uniform(*COMPONENT_ANGLE, size=N_COMPONENTS)
    kappas = np.exp(rng.uniform(*np.log(COMPONENT_KAPPA), size=N_COMPONENTS))
    weights = rng.uniform(0.5, 1.5, size=N_COMPONENTS)
    weights /= weights.sum()
    comps = []
    for i in range(N_COMPONENTS):
        center = centers[labels[i]]
        mu = np.cos(angles[i]) * center + np.sin(angles[i]) * _tangent_unit(rng, center, 1)[0]
        mu = rot @ mu
        mu /= np.linalg.norm(mu)
        comps.append({"weight": float(weights[i]), "mu": mu.tolist(), "kappa": float(kappas[i])})
    with open(os.path.join(out_dir, "mix300.json"), "w", encoding="utf-8") as fh:
        json.dump({"dim": DIM, "components": comps}, fh)
    with open(os.path.join(out_dir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump({"clusters": CLUSTERS, "labels": labels.tolist(),
                   "centers": (centers @ rot.T).tolist()}, fh)
