"""EM fitting, concentration MLE, BIC, KNN, and classical MDS."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ive, logsumexp

from vmfgeom import (DistanceMatrix, FitConfig, SampleSet, VmfMixture, VmfParams, bic, fit_em,
                     kappa_mle, knn_predict, log_normalizing_constant, mds_embed,
                     mean_resultant_ratio, mixture_log_likelihood, sample, sample_mixture,
                     geodesic_distance)
from vmfgeom import fit_eval
from vmfgeom.experiments import SIM2_N, _derived_seed, sim2_truth
from vmfgeom.bessel import _TINY
from vmfgeom.core import log_peak_density
from vmfgeom.fit_eval import _EM_BLOCK, _em_restarts, _kappa_newton, _seed_directions
from vmfgeom.rng import substream

mp.mp.dps = 40


def kappa_mle_reference(r_bar, d, kappa_cap, kappa=None, a=math.nan):
    """The scalar guarded Halley loop, one concentration at a time, from
    kappa (with A_d there, if known, in a) if it lies within 50 % of
    Banerjee's start, else from that start.
    Returns (kappa, A_d at kappa, NaN at the cap)."""
    cold = min(max(r_bar * (d - r_bar * r_bar) / (1.0 - r_bar * r_bar), 1e-12), kappa_cap)
    if kappa is None or abs(kappa - cold) > 0.5 * cold:
        kappa, a = cold, math.nan
    for steps in range(26):
        if math.isnan(a):
            a = mean_resultant_ratio(d, kappa)
        resid = a - r_bar
        if abs(resid) < 1e-10:
            return kappa, a
        if steps == 25:
            raise RuntimeError("no convergence in 25 steps")
        if kappa > 1e6 * math.sqrt(d):
            c1, c2 = (d - 1.0) / 2.0, (d - 1.0) * (d - 3.0) / 8.0
            slope = (c1 - 2.0 * c2 / kappa) / (kappa * kappa)
            curve = (6.0 * c2 / kappa - 2.0 * c1) / (kappa * kappa * kappa)
        else:
            slope = 1.0 - a * a - (d - 1.0) * a / kappa
            curve = -2.0 * a * slope - (d - 1.0) * (slope * kappa - a) / (kappa * kappa)
        if abs(resid * curve) < slope * slope:
            step = resid * slope / (slope * slope - 0.5 * resid * curve)
        else:
            step = resid / slope
        nxt = kappa - step
        while nxt <= 0.0:
            step *= 0.5
            nxt = kappa - step
        if nxt >= kappa_cap:
            return kappa_cap, math.nan
        kappa, a = nxt, math.nan


def em_reference(X, cfg, rng):
    """EM one component at a time: a resultant per column of unflushed
    responsibilities, scalar log C_d and kappa, scipy's logsumexp.
    Returns (log-likelihood, iterations, converged, reseeds, subnormals)."""
    n, d = X.shape
    k = cfg.k
    seeds = _seed_directions(X, k, rng)
    assign = np.argmax(X @ seeds.T, axis=1)
    mus, kappas, ads, weights = np.empty((k, d)), np.empty(k), np.empty(k), np.empty(k)
    for j in range(k):
        members = np.nonzero(assign == j)[0]
        if members.size == 0:
            members = np.array([int(rng.integers(n))])
        resultant = X[members].sum(axis=0)
        norm = float(np.linalg.norm(resultant))
        mus[j] = resultant / norm if norm > 0 else seeds[j]
        r_bar = min(max(norm / members.size, 1e-10), 1.0 - 1e-12) if norm > 0 else 0.5
        kappas[j], ads[j] = kappa_mle_reference(r_bar, d, cfg.kappa_cap)
        weights[j] = members.size / n
    weights /= weights.sum()
    prev_ll, reseeds, subnormals, converged = -math.inf, 0, 0, False
    for iterations in range(1, cfg.max_iters + 1):
        log_c = np.array([log_normalizing_constant(d, kap) for kap in kappas])
        logp = np.log(weights) + log_c + kappas * (X @ mus.T)
        lse = logsumexp(logp, axis=1)
        ll = float(lse.sum())
        if math.isfinite(prev_ll) and abs(ll - prev_ll) <= cfg.tol * abs(ll):
            converged = True
            break
        prev_ll = ll
        resp = np.exp(logp - lse[:, None])
        subnormals += int(np.count_nonzero((resp > 0.0) & (resp < np.finfo(float).tiny)))
        n_eff = resp.sum(axis=0)
        for j in range(k):
            if n_eff[j] < 1.0:
                mus[j] = X[int(np.argmin(resp.max(axis=1)))]
                weights[j] = 1.0 / n
                reseeds += 1
            else:
                resultant = resp[:, j] @ X
                norm = float(np.linalg.norm(resultant))
                mus[j] = resultant / norm
                # Warm start: the last iterate and A_d there.
                kappas[j], ads[j] = kappa_mle_reference(
                    min(max(norm / n_eff[j], 1e-10), 1.0 - 1e-12), d, cfg.kappa_cap,
                    kappas[j], ads[j])
                weights[j] = n_eff[j] / n
        weights /= weights.sum()
    mixture = VmfMixture(components=tuple(VmfParams(mu=m, kappa=c) for m, c in zip(mus, kappas)),
                         weights=weights)
    return mixture_log_likelihood(mixture, X), iterations, converged, reseeds, subnormals


def estep_component_major(X, mus, kappas, weights):
    """One restart's E-step as _em_restarts forms it: k x n log-densities,
    one exp, its column sums, and the quotients by them flushed below tiny.
    Returns (log-likelihood, effective counts, resultants, worst-explained
    point)."""
    log_c = log_peak_density(X.shape[1], kappas) - kappas
    logp = kappas[:, None] * (mus @ X.T) + (np.log(weights) + log_c)[:, None]
    top = logp.max(axis=0)
    e = np.exp(logp - top)
    total = e.sum(axis=0)
    resp = e / total
    resp[resp < _TINY] = 0.0
    return (float((top + np.log(total)).sum()), resp.sum(axis=1), resp @ X,
            int(np.argmin(resp.max(axis=0))))


def estep_point_major(X, mus, kappas, weights):
    """The same as the loop before the component-major layout formed it:
    n x k log-densities, one exp for the log-sum-exp and another for the
    responsibilities, flushed below tiny after the effective counts."""
    log_c = log_peak_density(X.shape[1], kappas) - kappas
    logp = np.log(weights) + log_c + kappas * (X @ mus.T)
    top = logp.max(axis=1)
    lse = top + np.log(np.exp(logp - top[:, None]).sum(axis=1))
    resp = np.exp(logp - lse[:, None])
    n_eff = resp.sum(axis=0)
    resp[resp < _TINY] = 0.0
    return float(lse.sum()), n_eff, resp.T @ X, int(np.argmin(resp.max(axis=1)))


def em_once_reference(X, cfg, rng, estep=estep_component_major):
    """One EM restart on its own, with the given E-step: the loop fit_em ran
    before restarts were advanced together. Returns (mixture,
    log-likelihood, iterations, converged, reseeds, history)."""
    n, d = X.shape
    k = cfg.k

    seeds = _seed_directions(X, k, rng)
    assign = np.argmax(X @ seeds.T, axis=1)
    mus = np.empty((k, d))
    r_bars = np.empty(k)
    weights = np.empty(k)
    for j in range(k):
        members = np.nonzero(assign == j)[0]
        if members.size == 0:
            members = np.array([int(rng.integers(n))])
        resultant = X[members].sum(axis=0)
        norm = float(np.linalg.norm(resultant))
        mus[j] = resultant / norm if norm > 0 else seeds[j]
        r_bars[j] = min(max(norm / members.size, 1e-10), 1.0 - 1e-12) if norm > 0 else 0.5
        weights[j] = members.size / n
    kappas, ads, _ = _kappa_newton(r_bars, d, cfg.kappa_cap)

    weights /= weights.sum()
    prev_ll = -math.inf
    history = []
    reseeds = 0
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        ll, n_eff, resultants, worst = estep(X, mus, kappas, weights)
        history.append(ll)
        if math.isfinite(prev_ll) and abs(ll - prev_ll) <= cfg.tol * abs(ll):
            converged = True
            break
        prev_ll = ll

        norms = np.linalg.norm(resultants, axis=1)
        fed = n_eff >= 1.0
        mus[fed] = resultants[fed] / norms[fed, None]
        kappas[fed], ads[fed], _ = _kappa_newton(np.clip(norms[fed] / n_eff[fed], 1e-10, 1.0 - 1e-12),
                                                 d, cfg.kappa_cap, kappas[fed], ads[fed])
        weights[fed] = n_eff[fed] / n
        if not fed.all():
            mus[~fed] = X[worst]
            weights[~fed] = 1.0 / n
            reseeds += int(np.count_nonzero(~fed))
        weights /= weights.sum()

    mixture = VmfMixture(
        components=tuple(VmfParams(mu=mus[j], kappa=kappas[j]) for j in range(k)),
        weights=weights)
    ll = mixture_log_likelihood(mixture, X)
    if not converged:
        history.append(ll)
    return mixture, ll, iterations, converged, reseeds, tuple(history)


def assert_same_fit(got, want):
    """Bit-identical (mixture, log-likelihood, iterations, converged,
    reseeds, history) tuples."""
    for a, b in zip(got[0].components, want[0].components, strict=True):
        assert np.array_equal(a.mu, b.mu) and a.kappa == b.kappa
    assert np.array_equal(got[0].weights, want[0].weights)
    assert got[1:] == want[1:]


def assert_restarts_match_oracle(X, cfg, blocks=None):
    """Every restart of the blocks (by default one block of all restarts)
    equals the restart run alone; returns the oracle's results."""
    wants = [em_once_reference(X, cfg, substream(cfg.seed, "em-restart", r))
             for r in range(cfg.restarts)]
    got = [res for block in blocks or [range(cfg.restarts)] for res in _em_restarts(X, cfg, block)]
    for a, b in zip(got, wants, strict=True):
        assert_same_fit(a, b)
    return wants


def subnormal_share(X, mixture):
    """Share of the n x k responsibilities of the mixture at X that are
    subnormal, through scalar log C_d and scipy's logsumexp."""
    mus = np.stack([c.mu for c in mixture.components])
    kappas = np.array([c.kappa for c in mixture.components])
    log_c = [log_normalizing_constant(X.shape[1], c) for c in kappas]
    logp = np.log(mixture.weights) + log_c + kappas * (X @ mus.T)
    resp = np.exp(logp - logsumexp(logp, axis=1, keepdims=True))
    return np.count_nonzero((resp > 0.0) & (resp < _TINY)) / resp.size


def five_clusters_768(n, seed):
    """n points from five orthonormal modes at kappa = 1020 in R^768. Fitted
    with six components, many log-densities of the other modes sit 708 to
    745 below a point's own, where responsibilities are subnormal."""
    centers = np.linalg.qr(np.random.default_rng(seed).standard_normal((768, 5)))[0].T
    truth = VmfMixture(components=tuple(VmfParams(mu=c, kappa=1020.0) for c in centers),
                       weights=np.full(5, 0.2))
    return sample_mixture(truth, n, seed=seed + 1).points


def astuple_fit(fit):
    return (fit.mixture, fit.log_likelihood, fit.iterations, fit.converged, fit.reseeds,
            fit.history)


class TestArrayEm:
    def test_newton_matches_scalar_loop(self):
        # Bit for bit: each element takes the scalar loop's steps, stop and cap,
        # from Banerjee's start and from warm starts with or without A_d there.
        # Targets up to 1e12, past ive's range (about 1.09e9).
        for d in (2, 3, 768):
            r = mean_resultant_ratio(d, np.geomspace(1e-6, 1e12, 60))
            for cap in (1e5, 1e12):
                want = np.array([kappa_mle_reference(float(v), d, cap) for v in r])
                kappa, a, _ = _kappa_newton(r, d, cap)
                assert np.array_equal(kappa, want[:, 0])
                assert np.array_equal(a, want[:, 1], equal_nan=True)
                assert [kappa_mle(float(v), d, cap) for v in r] == want[:, 0].tolist()
                start = np.roll(kappa, 7)  # other elements' roots as warm starts
                warm = np.array([kappa_mle_reference(float(v), d, cap, float(s))
                                 for v, s in zip(r, start)])
                for known in (None, mean_resultant_ratio(d, start)):
                    got = _kappa_newton(r, d, cap, start, known)
                    assert np.array_equal(got[0], warm[:, 0])
                    assert np.array_equal(got[1], warm[:, 1], equal_nan=True)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_em_matches_component_loop(self, seed):
        # Four orthogonal modes at kappa = 720 in R^5: log-densities of other
        # modes sit about 720 below, so some responsibilities are subnormal
        # and the flush before resp.T @ X is exercised.
        truth = VmfMixture(components=tuple(VmfParams(mu=m, kappa=720.0) for m in np.eye(5)[:4]),
                           weights=np.full(4, 0.25))
        X = sample_mixture(truth, 600, seed=seed).points
        subnormals = 0
        for k in (2, 4, 6):
            cfg = FitConfig(k=k, restarts=3, seed=seed)
            for r, got in enumerate(_em_restarts(X, cfg, range(cfg.restarts))):
                want = em_reference(X, cfg, substream(seed, "em-restart", r))
                assert got[1] == pytest.approx(want[0], rel=1e-12)
                assert got[2:5] == want[1:4]
                subnormals += want[4]
        assert subnormals > 1000


class TestRestartBlocks:
    """The restarts advanced together against each restart run alone
    (em_once_reference), bit for bit."""

    @pytest.mark.parametrize("k", [2, 7, 10])
    def test_sim2_seed0_restarts_bit_identical(self, k):
        # sim2 seed 0: at K = 2 and 7 restarts stop both by convergence and at
        # max_iters, at different iterations; at K = 10 one restart reseeds
        # 428 times and the other nine never do.
        data = sample_mixture(sim2_truth(), SIM2_N, seed=_derived_seed(0, "sim2-sample"))
        cfg = FitConfig(k=k, restarts=10, seed=_derived_seed(0, "sim2-fit", k))
        wants = assert_restarts_match_oracle(data.points, cfg)
        assert len({w[2] for w in wants}) >= 2
        assert {w[3] for w in wants} == {True, False}
        if k == 10:
            assert [w[4] > 0 for w in wants].count(True) == 1
        lls = [w[1] for w in wants]
        assert_same_fit(astuple_fit(fit_em(data, cfg)), wants[lls.index(max(lls))])

    @pytest.mark.parametrize("k", [2, 7, 10])
    def test_sim2_seed0_matches_point_major_loop(self, k):
        # Against the loop before the component-major layout: the division in
        # place of a second exp moves log-likelihoods by rounding only, and
        # every restart keeps its course and the same one wins.
        data = sample_mixture(sim2_truth(), SIM2_N, seed=_derived_seed(0, "sim2-sample"))
        cfg = FitConfig(k=k, restarts=10, seed=_derived_seed(0, "sim2-fit", k))
        got = _em_restarts(data.points, cfg, range(cfg.restarts))
        wants = [em_once_reference(data.points, cfg, substream(cfg.seed, "em-restart", r),
                                   estep_point_major) for r in range(cfg.restarts)]
        for a, b in zip(got, wants, strict=True):
            assert a[2:5] == b[2:5]
            assert a[1] == pytest.approx(b[1], rel=1e-12, abs=0.0)
        lls = [[res[1] for res in side] for side in (got, wants)]
        assert lls[0].index(max(lls[0])) == lls[1].index(max(lls[1]))

    def test_768d_restarts_converge_at_different_iterations(self):
        # Four modes 0.3 rad from a common axis in R^768, fitted with six
        # components: the restarts converge after 17, 19 and 22 iterations, so
        # the block shrinks twice. Small matrices also take other BLAS kernels
        # than large ones, so only same-shape products give the same bits.
        centers = np.zeros((4, 768))
        centers[:, 0] = math.cos(0.3)
        centers[np.arange(4), np.arange(1, 5)] = math.sin(0.3)
        truth = VmfMixture(components=tuple(VmfParams(mu=c, kappa=400.0) for c in centers),
                           weights=np.full(4, 0.25))
        X = sample_mixture(truth, 300, seed=5).points
        wants = assert_restarts_match_oracle(X, FitConfig(k=6, restarts=3, seed=2))
        assert [w[2:4] for w in wants] == [(17, True), (19, True), (22, True)]

    def test_768d_subnormal_responsibilities_bit_identical(self):
        # The oracle forms every subnormal responsibility and exponential,
        # _em_restarts none: the fits must still agree bit for bit.
        X = five_clusters_768(600, seed=0)
        wants = assert_restarts_match_oracle(X, FitConfig(k=6, restarts=3, seed=0))
        assert all(subnormal_share(X, w[0]) >= 0.2 for w in wants)
        assert {w[2] for w in wants} == {4, 7} and any(w[4] for w in wants)

    def test_log_tiny_is_the_exact_threshold(self):
        # Masking exponents below _LOG_TINY zeroes exactly the exponentials below tiny.
        below = np.nextafter(fit_eval._LOG_TINY, -np.inf)
        assert np.all(np.exp(np.full(64, fit_eval._LOG_TINY)) >= _TINY)
        assert np.all(np.exp(np.full(64, below)) < _TINY)

    def test_estep_forms_no_subnormal(self, monkeypatch):
        # Every exp in fit_eval is the E-step's one exp: count the subnormals
        # it returns, and those among the responsibilities derived from it
        # that reach resp @ X. With 20 components on five modes many column
        # sums exceed 1, so the division forms responsibilities below tiny
        # from exponentials above it (10 here), which the flush zeroes.
        outputs, products = [], []

        class Responsibilities(np.ndarray):
            def __matmul__(self, other):
                resp = np.asarray(self)
                products.append(np.count_nonzero((resp > 0.0) & (resp < _TINY)))
                return resp @ other

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, *args, **kwargs):
                out = np.exp(*args, **kwargs)
                outputs.append((out.size, np.count_nonzero((out > 0.0) & (out < _TINY))))
                return out.view(Responsibilities)

        X = five_clusters_768(1000, seed=0)
        monkeypatch.setattr(fit_eval, "np", CountingNumpy())
        iterations = max(r[2] for r in _em_restarts(X, FitConfig(k=20, restarts=3, seed=0), range(3)))
        assert len(outputs) == len(products) == iterations
        assert sum(count for _, count in outputs) == 0
        assert sum(products) == 0
        assert sum(size for size, _ in outputs) > 20_000

    def test_restarts_span_blocks_with_bounded_memory(self):
        data = sample_mixture(sim2_truth(), 1000, seed=3)
        n, d = data.points.shape
        block = _EM_BLOCK // ((n + d) * 20)
        cfg = FitConfig(k=20, restarts=2 * block + 3, max_iters=8, seed=4)
        blocks = [range(0, block), range(block, 2 * block), range(2 * block, cfg.restarts)]
        wants = assert_restarts_match_oracle(data.points, cfg, blocks)
        lls = [w[1] for w in wants]
        peaks = []
        for restarts in (block, cfg.restarts):
            tracemalloc.start()
            try:
                fit = fit_em(data, FitConfig(k=20, restarts=restarts, max_iters=8, seed=4))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert_same_fit(astuple_fit(fit), wants[lls.index(max(lls))])
        # Three blocks peak no higher than one: the working set is one
        # block's arrays, not one per restart.
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] < 3 * 8 * _EM_BLOCK  # three block-sized float64 arrays


class TestKappaMle:
    def test_d3_closed_form_root(self):
        # A_3(kappa) = coth(kappa) - 1/kappa must equal 0.8 at the root.
        kappa = kappa_mle(0.8, 3)
        assert 1.0 / math.tanh(kappa) - 1.0 / kappa == pytest.approx(0.8, abs=1e-10)

    def test_banerjee_start_refined(self):
        # The initial rational estimate for r=0.8, d=3 is 5.2444...; the
        # refined root is close to but distinct from it.
        start = 0.8 * (3 - 0.64) / (1 - 0.64)
        assert start == pytest.approx(5.24444, abs=1e-5)
        assert abs(kappa_mle(0.8, 3) - start) < 0.3

    def test_monotone_toward_zero(self):
        vals = [kappa_mle(r, 3) for r in (1e-4, 1e-3, 1e-2, 0.1)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[0] < 1e-3

    def test_high_dimension_extreme_r(self):
        # Oracle: 40-digit Bessel ratio at the returned root.
        kappa = kappa_mle(0.999, 768)
        assert math.isfinite(kappa)
        nu = mp.mpf(768) / 2 - 1
        ratio = float(mp.besseli(nu + 1, kappa) / mp.besseli(nu, kappa))
        assert ratio == pytest.approx(0.999, abs=1e-8)

    @pytest.mark.parametrize("d", [2, 3, 10, 100])
    @pytest.mark.parametrize("r", [0.1, 0.25, 0.5, 0.75, 0.9, 0.95])
    def test_inverse_pair_on_grid(self, d, r):
        kappa = kappa_mle(r, d)
        got = float(ive(d / 2, kappa) / ive(d / 2 - 1, kappa))
        assert got == pytest.approx(r, abs=1e-8)

    def test_domain_errors(self):
        for r in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                kappa_mle(r, 3)

    def test_cap_applies(self):
        assert kappa_mle(1.0 - 1e-13, 768, kappa_cap=1e5) == 1e5

    @pytest.mark.parametrize("d", [2, 3, 10, 100, 768])
    @pytest.mark.parametrize("cap", [1e5, 1e12])
    def test_solve_converges_or_caps(self, d, cap):
        # The contract, cold and warm-started far below and far above the
        # root, at the edges of the band around Banerjee's estimate where a
        # warm start is kept, and from a fixed grid: every element ends
        # within 1e-10 of its target by a fresh A_d, or at the cap, and the
        # A_d and log C_d returned are, bit for bit, mean_resultant_ratio and
        # log_peak_density - kappa at the returned kappa, which the E-step
        # would otherwise compute. The roots (kappa from about 1e-9 to the
        # cap) reach every Bessel branch: ive, the series where ive underflows
        # (d >= 100) and the large-argument expansion past ive's range.
        # Started again from its own result, a solve returns it unchanged.
        r = np.concatenate([np.geomspace(1e-10, 0.5, 40), 1.0 - np.geomspace(0.5, 1e-12, 40)[1:]])
        root = _kappa_newton(r, d, cap)[0]
        y = ive(d / 2.0 - 1.0, root)
        assert (y == 0.0).any() == (d >= 100) and np.isnan(y).any() == (cap > 1.1e9)
        cold = np.minimum(r * (d - r * r) / (1.0 - r * r), cap)
        starts = [None, root * 1e-6, root * 1e6, cold * 0.5, cold * 1.5]
        starts += [np.full(r.size, k) for k in np.geomspace(1e-12, cap, 12)]
        for start in starts:
            start = None if start is None else np.minimum(start, cap)
            kappa, a, log_c = got = _kappa_newton(r, d, cap, start)
            fresh = mean_resultant_ratio(d, kappa)
            at_cap = kappa == cap
            known = ~np.isnan(a)
            assert np.all((np.abs(fresh - r) < 1e-10) | at_cap)
            assert np.array_equal(a[known], fresh[known])
            assert np.array_equal(log_c[known], (log_peak_density(d, kappa) - kappa)[known])
            assert np.all(at_cap[~known]) and np.array_equal(np.isnan(log_c), ~known)
            for want, again in zip(got, _kappa_newton(r, d, cap, kappa, a, log_c)):
                assert np.array_equal(again, want, equal_nan=True)

    def test_exhausted_solve_raises(self, monkeypatch):
        # An A_d that never reaches the target: after 25 steps the solve
        # raises, naming d, r_bar and kappa, instead of returning its last kappa.
        monkeypatch.setattr(fit_eval, "_log_ive_and_ratio",
                            lambda nu, x, ratio: (np.zeros_like(x), np.full_like(x, 0.5)))
        with pytest.raises(RuntimeError, match=r"d=3, r_bar=0\.4, kappa=[0-9.e+-]+$"):
            _kappa_newton(np.array([0.4]), 3, 1e5)


class TestBesselCalls:
    def test_em_estep_makes_no_bessel_call(self, ive_calls, monkeypatch):
        # Each solve hands the E-step log C_d at its root, so no E-step, nor
        # the scoring of a restart as it leaves, calls ive; the solves do.
        per_call = []
        real = fit_eval._component_log_pdfs

        def watched(*args):
            before = len(ive_calls)
            out = real(*args)
            per_call.append(len(ive_calls) - before)
            return out

        monkeypatch.setattr(fit_eval, "_component_log_pdfs", watched)
        data = sample_mixture(sim2_truth(), 400, seed=3)
        _em_restarts(data.points, FitConfig(k=4, restarts=3, seed=1), range(3))
        assert len(per_call) > 10 and set(per_call) == {0}
        assert ive_calls

    def test_estep_evaluates_only_unknown_log_c(self, ive_calls):
        # At the cap a solve leaves log C_d unknown (NaN): the E-step
        # evaluates that entry alone, in place, to log_peak_density's value.
        kappas = np.array([2.0, 1e5, 7.0])
        want = log_peak_density(3, kappas) - kappas
        log_c = np.where(kappas == 1e5, np.nan, want)
        args = np.eye(3), np.eye(3), kappas, np.full(3, 1.0 / 3.0)
        ive_calls.clear()
        got = fit_eval._component_log_pdfs(*args, log_c)
        assert ive_calls == [(0.5, 1)] and np.array_equal(log_c, want)
        assert np.array_equal(got, fit_eval._component_log_pdfs(*args, want.copy()))


class TestBic:
    def test_hand_value(self):
        assert bic(0.0, k=4, d=2, n=400) == pytest.approx(11 * math.log(400), rel=1e-14)
        assert bic(0.0, k=4, d=2, n=400) == pytest.approx(65.9061100182, abs=1e-9)

    def test_single_sample_penalty_free(self):
        assert bic(-3.5, k=1, d=2, n=1) == pytest.approx(7.0, rel=1e-14)

    @given(st.floats(-1e3, 0.0), st.integers(1, 20), st.integers(2, 50),
           st.integers(1, 10_000))
    def test_doubling_n_adds_log2_penalty(self, ll, k, d, n):
        delta = bic(ll, k, d, 2 * n) - bic(ll, k, d, n)
        assert delta == pytest.approx((k * (d + 1) - 1) * math.log(2.0), rel=1e-9)

    def test_n_validated(self):
        with pytest.raises(ValueError):
            bic(0.0, 1, 2, 0)


class TestFitEm:
    def test_single_component_recovery(self):
        mu = np.array([0.0, 0.6, 0.8])
        p = VmfParams(mu=mu, kappa=10.0)
        data = sample(p, 10_000, seed=3)
        fit = fit_em(data, FitConfig(k=1, restarts=2, seed=1))
        comp = fit.mixture.components[0]
        assert float(comp.mu @ mu) > 0.999
        assert 9.0 <= comp.kappa <= 11.0

    def test_repeated_point_hits_kappa_cap(self):
        pts = np.tile(np.array([[1.0, 0.0]]), (50, 1))
        data = SampleSet(points=pts)
        fit = fit_em(data, FitConfig(k=1, restarts=1, seed=0))
        assert fit.mixture.components[0].kappa == pytest.approx(1e5)

    def test_four_mode_recovery_across_seeds(self):
        truth = sim2_truth()
        true_mus = [np.asarray(c.mu) for c in truth.components]
        wins = 0
        for seed in range(5):
            data = sample_mixture(truth, 400, seed=seed)
            fit = fit_em(data, FitConfig(k=4, restarts=10, seed=seed))
            taken = set()
            ok = True
            for comp in fit.mixture.components:
                dists = [geodesic_distance(comp.mu, t) for t in true_mus]
                best = int(np.argmin(dists))
                if dists[best] >= 0.15 or best in taken:
                    ok = False
                    break
                taken.add(best)
            wins += ok
        assert wins >= 4

    def test_loglik_monotone_and_bic_consistent(self):
        truth = sim2_truth()
        data = sample_mixture(truth, 400, seed=2)
        fit = fit_em(data, FitConfig(k=3, restarts=3, seed=5))
        hist = np.array(fit.history)
        assert np.all(np.diff(hist) >= -1e-10)
        assert fit.bic == bic(fit.log_likelihood, 3, 2, 400)
        recomputed = mixture_log_likelihood(fit.mixture, data.points)
        assert recomputed == pytest.approx(fit.log_likelihood, rel=1e-9)

    @pytest.mark.parametrize("k", [2, 7])
    def test_loglik_is_that_of_the_returned_mixture(self, k):
        # sim2 seed 0: the best K = 2 and K = 7 restarts stop at max_iters,
        # one M-step past the last log-likelihood they evaluated in the loop.
        data = sample_mixture(sim2_truth(), SIM2_N, seed=_derived_seed(0, "sim2-sample"))
        fit = fit_em(data, FitConfig(k=k, restarts=10, seed=_derived_seed(0, "sim2-fit", k)))
        assert not fit.converged
        assert fit.log_likelihood == mixture_log_likelihood(fit.mixture, data.points)
        assert fit.history[-1] == fit.log_likelihood

    def test_deterministic_given_seed(self):
        truth = sim2_truth()
        data = sample_mixture(truth, 300, seed=8)
        a = fit_em(data, FitConfig(k=2, restarts=3, seed=9))
        b = fit_em(data, FitConfig(k=2, restarts=3, seed=9))
        assert a.log_likelihood == b.log_likelihood
        for ca, cb in zip(a.mixture.components, b.mixture.components):
            assert np.array_equal(ca.mu, cb.mu)
            assert ca.kappa == cb.kappa

    def test_errors(self):
        truth = sim2_truth()
        data = sample_mixture(truth, 10, seed=1)
        with pytest.raises(ValueError):
            fit_em(data, FitConfig(k=10, restarts=1, seed=0))
        empty = SampleSet(points=np.empty((0, 2)))
        with pytest.raises(ValueError):
            fit_em(empty, FitConfig(k=1, restarts=1, seed=0))

    @pytest.mark.parametrize("field,value", [
        ("tol", math.nan), ("tol", math.inf), ("tol", 0.0), ("tol", -1e-8),
        ("kappa_cap", math.nan), ("kappa_cap", math.inf), ("kappa_cap", 0.0),
        ("max_iters", 0), ("k", 0), ("restarts", 0)])
    def test_config_rejects_bad_settings(self, field, value):
        # Each setting must be finite and positive: a NaN tolerance would
        # never converge, an infinite one would stop after two E-steps, and
        # a NaN cap would turn every concentration into NaN.
        with pytest.raises(ValueError, match=field):
            FitConfig(**{"k": 2, field: value})


class TestKnn:
    def test_exact_match_k1(self):
        dist = np.array([0.4, 0.0, 0.9])
        labels = np.array([2, 7, 2])
        assert knn_predict(dist, labels, 1) == 7

    def test_unanimous_labels(self):
        dist = np.array([0.5, 0.2, 0.8, 0.1])
        labels = np.array([3, 3, 3, 3])
        for k in (1, 2, 4):
            assert knn_predict(dist, labels, k) == 3

    def test_matches_bruteforce_majority(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(3, 30))
            dist = rng.uniform(0.0, 1.0, n)
            labels = rng.integers(0, 3, n)
            k = int(rng.integers(1, n + 1))
            got = knn_predict(dist, labels, k)
            order = np.argsort(dist, kind="stable")[:k]
            near = labels[order]
            counts = np.bincount(near, minlength=3)
            top = counts.max()
            cand = [c for c in range(3) if counts[c] == top]
            if len(cand) == 1:
                assert got == cand[0]
            else:
                means = {c: dist[order][near == c].mean() for c in cand}
                best = min(means.values())
                tied = sorted(c for c in cand if means[c] == best)
                assert got == tied[0]

    def test_tie_smaller_mean_distance_wins(self):
        dist = np.array([0.1, 0.9, 0.2, 0.8])
        labels = np.array([5, 5, 6, 6])
        # both labels have 2 votes; label 6 is not closer on average
        assert knn_predict(dist, labels, 4) == 5

    def test_errors(self):
        with pytest.raises(ValueError):
            knn_predict(np.array([]), np.array([]), 1)
        with pytest.raises(ValueError):
            knn_predict(np.array([0.1, 0.2]), np.array([0, 1]), 3)


class TestMds:
    def test_equilateral_triangle(self):
        d = np.ones((3, 3)) - np.eye(3)
        res = mds_embed(DistanceMatrix(entries=d), 2)
        got = np.linalg.norm(res.coords[:, None, :] - res.coords[None, :, :], axis=-1)
        assert got == pytest.approx(d, abs=1e-9)
        assert not res.padded

    def test_recovers_planar_configuration(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(-2, 2, (12, 2))
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        res = mds_embed(DistanceMatrix(entries=d), 2)
        got = np.linalg.norm(res.coords[:, None, :] - res.coords[None, :, :], axis=-1)
        assert got == pytest.approx(d, abs=1e-9)
        assert np.abs(res.coords.mean(axis=0)).max() < 1e-9

    def test_collinear_points_pad_second_axis(self):
        pos = np.array([0.0, 1.0, 3.0, 6.0])
        d = np.abs(pos[:, None] - pos[None, :])
        res = mds_embed(DistanceMatrix(entries=d), 2)
        assert res.padded
        assert res.n_positive == 1
        assert np.all(res.coords[:, 1] == 0.0)

    def test_dim_validated(self):
        d = np.ones((3, 3)) - np.eye(3)
        for dim in (0, 3):
            with pytest.raises(ValueError):
                mds_embed(DistanceMatrix(entries=d), dim)
