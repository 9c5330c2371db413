"""The d = 768 path end to end: an EM fit to clustered points and the
greedy, single-linkage and PAM reductions of a many-component mixture.

The inputs follow the paper's high-dimensional use: five orthonormal
directions in R^768; points drawn at kappa = 1000 around them; and a
mixture of 150 components, each turned 0.05-0.15 rad off its direction,
with kappa log-uniform in [500, 2000]. Within a cluster every WL distance is
below about 0.7 and across clusters every one is above about 1.27, so each
reduction to five components must return exactly the generator's clusters.
The checks are computed apart from the code under test: mpmath log C_768,
the closed-form merge weights and concentrations, and the Frechet
first-order condition.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import logsumexp

from vmfgeom import (FitConfig, VmfMixture, VmfParams, fit_em, greedy_reduce,
                     partitional_reduce, sample_mixture)

D = 768
CLUSTERS = 5
COMPONENTS = 150


def cluster_directions(seed):
    """CLUSTERS orthonormal directions in R^D, one per row."""
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((D, CLUSTERS)))[0].T


def clustered_mixture(centers, seed):
    """COMPONENTS laws, each near the direction of its cluster; returns the
    mixture and every component's cluster."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(COMPONENTS) % CLUSTERS)
    tangent = rng.standard_normal((COMPONENTS, D))
    tangent -= np.einsum("ij,ij->i", tangent, centers[labels])[:, None] * centers[labels]
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    angle = rng.uniform(0.05, 0.15, COMPONENTS)[:, None]
    mus = np.cos(angle) * centers[labels] + np.sin(angle) * tangent
    kappas = np.exp(rng.uniform(math.log(500.0), math.log(2000.0), COMPONENTS))
    weights = rng.uniform(0.5, 1.5, COMPONENTS)
    mixture = VmfMixture(components=tuple(map(VmfParams, mus, kappas)),
                         weights=weights / weights.sum())
    return mixture, labels


def log_c(kappa):
    """log C_768(kappa) by mpmath at 40 digits."""
    with mp.workdps(40):
        nu, k = mp.mpf(D) / 2 - 1, mp.mpf(kappa)
        return float(nu * mp.log(k) - mp.mpf(D) / 2 * mp.log(2 * mp.pi) - mp.log(mp.besseli(nu, k)))


def closed_form_kappa(weights, kappas):
    """The WL barycenter concentration (sum_i w_i kappa_i^-1/2)^-2, w normalised."""
    return float(np.sum(weights / weights.sum() / np.sqrt(kappas))) ** -2


def frechet_gradient(mu, weights, mus):
    """|sum_i w_i Log_mu(mu_i)| with w normalised; zero at a Frechet mean."""
    cos = np.clip(mus @ mu, -1.0, 1.0)
    proj = mus - cos[:, None] * mu
    norms = np.linalg.norm(proj, axis=1)
    scale = np.where(norms > 0, np.arccos(cos) / np.where(norms > 0, norms, 1.0), 0.0)
    return float(np.linalg.norm((weights / weights.sum() * scale) @ proj))


def replay(mixture, trace):
    """The live list after every event, each event checked against its
    inputs: summed weight, closed-form kappa and a Frechet-mean direction.
    Entries are (weight, mu, kappa, original members)."""
    live = [(w, c.mu, c.kappa, frozenset([i]))
            for i, (c, w) in enumerate(zip(mixture.components, mixture.weights))]
    for event in trace.events:
        inputs = [live[p] for p in event.merged]
        w = np.array([c[0] for c in inputs])
        kappas = np.array([c[2] for c in inputs])
        assert event.weight == pytest.approx(w.sum(), rel=1e-12)
        assert event.result.kappa == pytest.approx(closed_form_kappa(w, kappas), rel=1e-12)
        assert frechet_gradient(event.result.mu, w, np.array([c[1] for c in inputs])) <= 1e-7
        live = [c for i, c in enumerate(live) if i not in event.merged]
        live.append((event.weight, event.result.mu, event.result.kappa,
                     frozenset().union(*(c[3] for c in inputs))))
    return live


def test_fit_loglik_against_mpmath():
    centers = cluster_directions(seed=0)
    truth = VmfMixture(components=tuple(VmfParams(mu=c, kappa=1000.0) for c in centers),
                       weights=np.full(CLUSTERS, 1.0 / CLUSTERS))
    data = sample_mixture(truth, 1000, seed=1)
    fit = fit_em(data, FitConfig(k=8, restarts=2, seed=0))
    mus = np.stack([c.mu for c in fit.mixture.components])
    kappas = np.array([c.kappa for c in fit.mixture.components])
    logp = np.log(fit.mixture.weights) + [log_c(k) for k in kappas] + kappas * (data.points @ mus.T)
    ll = float(logsumexp(logp, axis=1).sum())
    assert fit.log_likelihood == pytest.approx(ll, rel=1e-10)
    assert fit.bic == pytest.approx(-2.0 * ll + (8 * (D + 1) - 1) * math.log(1000), rel=1e-10)
    # The fit separates the clusters: each point's likeliest component sits
    # nearest the point's own direction.
    nearest = np.argmax(mus @ centers.T, axis=1)
    assert np.array_equal(nearest[np.argmax(logp, axis=1)], data.labels)


@pytest.mark.parametrize("method", ["greedy", "hclust", "kmedoids"])
def test_reduction_recovers_clusters(method):
    mixture, labels = clustered_mixture(cluster_directions(seed=2), seed=3)
    if method == "greedy":
        reduced, trace = greedy_reduce(mixture, CLUSTERS)
    else:
        reduced, trace = partitional_reduce(mixture, CLUSTERS, method=method, seed=0)
    live = replay(mixture, trace)
    assert {c[3] for c in live} == {frozenset(np.flatnonzero(labels == c).tolist())
                                    for c in range(CLUSTERS)}
    w0 = mixture.weights
    k0 = np.array([c.kappa for c in mixture.components])
    for (weight, mu, kappa, members), comp, w in zip(live, reduced.components, reduced.weights,
                                                     strict=True):
        idx = sorted(members)
        assert comp.kappa == kappa and np.array_equal(comp.mu, mu)
        assert w == pytest.approx(weight, rel=1e-12)  # the mixture renormalises its weights
        assert weight == pytest.approx(w0[idx].sum(), rel=1e-12)
        assert kappa == pytest.approx(closed_form_kappa(w0[idx], k0[idx]), rel=1e-12)
