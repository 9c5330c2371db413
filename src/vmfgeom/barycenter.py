"""Weighted barycenters of vMF collections under the WL geometry.

The barycenter objective splits into two independent problems: a spherical
Frechet mean for the mean direction (solved by Riemannian gradient descent
with the unit step) and a strictly convex one-dimensional problem for the
concentration (closed form in the s = 1/sqrt(kappa) coordinate).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import VmfParams
from .geometry import AntipodalMeansError, _exp


@dataclass(frozen=True)
class BarycenterConfig:
    max_iters: int = 1000
    tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be finite and > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class FrechetMeanResult:
    mean: np.ndarray
    iterations: int
    final_change: float
    converged: bool


@dataclass(frozen=True)
class BarycenterResult:
    params: VmfParams
    iterations: int
    final_change: float
    converged: bool


def _normalized_weights(weights, n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"weights must have length {n}")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ValueError("weights must be finite and strictly positive")
    return w / w.sum()


def optimal_kappa(kappas, weights) -> float:
    """Closed-form barycentric concentration (sum_i w_i / sqrt(kappa_i))^-2.

    A harmonic-type mean of the stand-in standard deviations 1/sqrt(kappa);
    always between min and max of the inputs, independent of the dimension.
    """
    ks = np.asarray(kappas, dtype=np.float64)
    if ks.ndim != 1 or ks.size == 0:
        raise ValueError("need at least one concentration")
    if not np.all(np.isfinite(ks)) or np.any(ks <= 0.0):
        raise ValueError("concentrations must be finite and > 0")
    w = _normalized_weights(weights, ks.size)
    return float(np.sum(w / np.sqrt(ks))) ** -2


def _weighted_log_sum(mu: np.ndarray, mus: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i w_i Log_mu(mu_i), vectorized over the collection."""
    cos = np.clip(mus @ mu, -1.0, 1.0)
    if np.any(cos <= -1.0 + 1e-12):
        bad = int(np.argmin(cos))
        raise AntipodalMeansError(
            f"direction {bad} is antipodal to the current iterate; "
            "the log map (and the Frechet mean) is undefined here")
    proj = mus - cos[:, None] * mu[None, :]
    norms = np.linalg.norm(proj, axis=1)
    ang = 2.0 * np.arctan2(np.linalg.norm(mus - mu, axis=1), np.linalg.norm(mus + mu, axis=1))
    scale = np.zeros_like(norms)
    ok = norms > 1e-300
    scale[ok] = ang[ok] / norms[ok]
    return (weights * scale) @ proj


def frechet_mean(mus, weights, cfg: BarycenterConfig = BarycenterConfig()) -> FrechetMeanResult:
    """Weighted Frechet mean of unit vectors under the arc-length metric.

    Initialized at the normalized weighted Euclidean average (the extrinsic
    mean), then iterated with the unit step mu <- Exp_mu(sum_i w_i
    Log_mu(mu_i)) until the ambient l2 change of the iterate falls below
    cfg.tol. The Hessian of (1/2) sum_i w_i theta_i^2 has its eigenvalues in
    [0, 1] at a minimizer, so the unit step converges wherever a shorter
    one does (Afsari, Tron & Vidal 2013); on two directions it lands on
    their weighted geodesic point at once. Uniqueness is guaranteed when
    all directions lie in an open geodesic ball of radius pi/2; inputs
    beyond that ball around the initializer trigger a warning, not a failure.
    """
    mus = np.asarray(mus, dtype=np.float64)
    if mus.ndim != 2 or mus.shape[0] == 0:
        raise ValueError("need an n x d matrix of unit directions")
    w = _normalized_weights(weights, mus.shape[0])

    extrinsic = w @ mus
    norm = float(np.linalg.norm(extrinsic))
    if norm < 1e-12:
        raise ValueError("weighted Euclidean average is zero; initializer undefined")
    mu = extrinsic / norm

    if np.any(np.clip(mus @ mu, -1.0, 1.0) < math.cos(math.pi / 2.0) - 1e-12):
        warnings.warn(
            "directions exceed the open pi/2 ball around the initializer; "
            "the Frechet mean may not be unique", RuntimeWarning)

    change = math.inf
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        nxt = _exp(mu, _weighted_log_sum(mu, mus, w))
        change = float(np.linalg.norm(nxt - mu))
        mu = nxt
        if change < cfg.tol:
            return FrechetMeanResult(mean=mu, iterations=iterations,
                                     final_change=change, converged=True)
    return FrechetMeanResult(mean=mu, iterations=iterations,
                             final_change=change, converged=False)


def barycenter(components, weights, cfg: BarycenterConfig = BarycenterConfig()) -> BarycenterResult:
    """Weighted barycenter of vMF laws under the WL distance.

    The direction and concentration subproblems are independent, so the
    result combines the spherical Frechet mean of the mean directions with
    the closed-form concentration.
    """
    comps = list(components)
    if not comps:
        raise ValueError("need at least one component")
    d = comps[0].d
    if any(c.d != d for c in comps):
        raise ValueError("all components must share the same dimension")
    mus = np.stack([c.mu for c in comps])
    kappas = [c.kappa for c in comps]
    res = frechet_mean(mus, weights, cfg)
    params = VmfParams(mu=res.mean, kappa=optimal_kappa(kappas, weights))
    return BarycenterResult(params=params, iterations=res.iterations,
                            final_change=res.final_change, converged=res.converged)
