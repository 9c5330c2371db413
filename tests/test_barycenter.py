"""Barycenter: closed-form concentration and spherical Frechet mean."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vmfgeom import (BarycenterConfig, VmfParams, barycenter, exp_map,
                     frechet_mean, geodesic_distance, log_map, optimal_kappa,
                     wl_distance, wl_interpolate, TangentVector)


def random_unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def cap_points(rng, center, radius, n):
    """n points within geodesic radius of center."""
    d = center.shape[0]
    out = []
    for _ in range(n):
        v = rng.standard_normal(d)
        v -= (center @ v) * center
        v *= rng.uniform(0.0, radius) / np.linalg.norm(v)
        out.append(exp_map(TangentVector(base=center, vec=v)))
    return np.stack(out)


def objective(mu, mus, weights):
    return sum(w * geodesic_distance(mu, m) ** 2 for m, w in zip(mus, weights))


class TestOptimalKappa:
    def test_fixed_point(self):
        assert optimal_kappa([7.0, 7.0, 7.0], [0.2, 0.3, 0.5]) == pytest.approx(7.0, rel=1e-14)

    def test_two_point_hand_value(self):
        assert optimal_kappa([1.0, 4.0], [0.5, 0.5]) == pytest.approx(16.0 / 9.0, abs=1e-12)

    def test_degenerate_weight_limit(self):
        for eps in (1e-4, 1e-8, 1e-12):
            w = np.array([1.0 - eps, eps / 2, eps / 2])
            got = optimal_kappa([3.0, 50.0, 0.1], w)
            assert got == pytest.approx(3.0, rel=10 * math.sqrt(eps) + 1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            optimal_kappa([], [])
        with pytest.raises(ValueError):
            optimal_kappa([1.0, -2.0], [0.5, 0.5])

    @given(st.lists(st.floats(0.01, 1e4), min_size=1, max_size=8), st.integers(0, 10_000))
    def test_sandwich_property(self, kappas, seed):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(len(kappas)))
        if np.any(w <= 0):
            return
        got = optimal_kappa(kappas, w)
        assert min(kappas) * (1 - 1e-9) <= got <= max(kappas) * (1 + 1e-9)

    def test_dimension_agnostic(self):
        # Same concentrations at d=3 and d=768 give the same value: the
        # formula touches only kappas and weights.
        ks, w = [2.0, 8.0, 32.0], [0.3, 0.3, 0.4]
        p3 = barycenter([VmfParams(mu=random_unit(np.random.default_rng(1), 3), kappa=k)
                         for k in ks], w, BarycenterConfig())
        p768 = barycenter([VmfParams(mu=random_unit(np.random.default_rng(2), 768), kappa=k)
                           for k in ks], w, BarycenterConfig())
        assert p3.params.kappa == p768.params.kappa


class TestFrechetMean:
    def test_single_point(self):
        x = np.array([0.0, 1.0, 0.0])
        res = frechet_mean(x[None, :], [1.0])
        assert res.mean == pytest.approx(x, abs=1e-15)
        assert res.iterations <= 1
        assert res.converged

    def test_symmetric_pair_midpoint(self):
        a = np.array([math.cos(0.4), math.sin(0.4)])
        b = np.array([math.cos(-0.4), math.sin(-0.4)])
        res = frechet_mean(np.stack([a, b]), [0.5, 0.5])
        assert res.mean == pytest.approx([1.0, 0.0], abs=1e-8)

    def test_cap_local_minimality_probe(self):
        # Brute-force check: the objective at the returned point beats 1e3
        # random nearby perturbations.
        rng = np.random.default_rng(42)
        center = random_unit(rng, 4)
        mus = cap_points(rng, center, 0.3, 100)
        w = rng.dirichlet(np.ones(100))
        res = frechet_mean(mus, w)
        assert res.converged
        assert geodesic_distance(res.mean, center) < 0.3 + 1e-6
        base = objective(res.mean, mus, w)
        for _ in range(1000):
            delta = rng.standard_normal(4)
            delta -= (res.mean @ delta) * res.mean
            delta *= 1e-3 / np.linalg.norm(delta)
            probe = exp_map(TangentVector(base=res.mean, vec=delta))
            assert objective(probe, mus, w) >= base - 1e-12

    def test_gradient_norm_small_at_solution(self):
        rng = np.random.default_rng(43)
        center = random_unit(rng, 3)
        mus = cap_points(rng, center, 0.5, 30)
        w = rng.dirichlet(np.ones(30))
        res = frechet_mean(mus, w)
        grad = sum(wi * log_map(res.mean, m).vec for m, wi in zip(mus, w))
        assert float(np.linalg.norm(grad)) < 1e-6

    def test_zero_extrinsic_mean_rejected(self):
        mus = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            frechet_mean(mus, [0.5, 0.5])

    def test_out_of_ball_warns_but_runs(self):
        mus = np.array([[1.0, 0.0], [math.cos(2.0), math.sin(2.0)],
                        [math.cos(-2.0), math.sin(-2.0)]])
        with pytest.warns(RuntimeWarning):
            res = frechet_mean(mus, [0.8, 0.1, 0.1])
        assert math.isfinite(res.final_change)

    def test_non_convergence_reported_not_raised(self):
        rng = np.random.default_rng(44)
        mus = cap_points(rng, random_unit(rng, 3), 1.0, 20)
        res = frechet_mean(mus, np.full(20, 0.05), BarycenterConfig(max_iters=1))
        assert not res.converged

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
    def test_config_rejects_non_finite_or_non_positive_tol(self, tol):
        # NaN would run every iteration and report non-convergence; inf
        # would accept the first step as converged.
        with pytest.raises(ValueError, match="tol"):
            BarycenterConfig(tol=tol)
        with pytest.raises(ValueError, match="max_iters"):
            BarycenterConfig(max_iters=0)


class TestBarycenter:
    def test_single_component(self):
        p = VmfParams(mu=[0.0, 0.0, 1.0], kappa=3.5)
        res = barycenter([p], [1.0])
        assert res.params.mu == pytest.approx(p.mu, abs=1e-12)
        assert res.params.kappa == pytest.approx(3.5, rel=1e-14)

    def test_two_point_slerp_midpoint(self):
        p = VmfParams(mu=[1.0, 0.0, 0.0], kappa=1.0)
        q = VmfParams(mu=[0.0, 1.0, 0.0], kappa=4.0)
        res = barycenter([p, q], [0.5, 0.5])
        mid = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        assert res.params.mu == pytest.approx(mid, abs=1e-8)
        assert res.params.kappa == pytest.approx(16.0 / 9.0, abs=1e-12)

    def test_minimizes_weighted_wl_objective(self):
        # The barycenter functional at the result must not exceed its value
        # at any input component.
        rng = np.random.default_rng(45)
        for _ in range(100):
            center = random_unit(rng, 3)
            mus = cap_points(rng, center, math.pi / 4, 5)
            comps = [VmfParams(mu=m, kappa=math.exp(rng.uniform(-1, 3))) for m in mus]
            w = rng.dirichlet(np.ones(5))
            res = barycenter(comps, w)
            value = sum(wi * wl_distance(res.params, c) ** 2 for c, wi in zip(comps, w))
            for c in comps:
                other = sum(wi * wl_distance(c, cc) ** 2 for cc, wi in zip(comps, w))
                assert value <= other + 1e-10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(46)
        comps = [VmfParams(mu=random_unit(rng, 3) * 0 + m, kappa=k)
                 for m, k in zip(cap_points(rng, np.array([0, 0, 1.0]), 0.4, 4),
                                 (1.0, 2.0, 5.0, 9.0))]
        w = np.array([0.1, 0.2, 0.3, 0.4])
        res = barycenter(comps, w)
        perm = [2, 0, 3, 1]
        res_p = barycenter([comps[i] for i in perm], w[perm])
        assert res_p.params.mu == pytest.approx(res.params.mu, abs=1e-12)
        assert res_p.params.kappa == pytest.approx(res.params.kappa, abs=1e-12)

    def test_weight_scale_consistency(self):
        rng = np.random.default_rng(47)
        mus = cap_points(rng, np.array([1.0, 0, 0]), 0.3, 3)
        comps = [VmfParams(mu=m, kappa=k) for m, k in zip(mus, (1.0, 2.0, 3.0))]
        w = np.array([0.2, 0.3, 0.5])
        a = barycenter(comps, w)
        b = barycenter(comps, 4.0 * w)  # power-of-two scale: exact in floats
        assert np.array_equal(a.params.mu, b.params.mu)
        assert a.params.kappa == b.params.kappa

    @pytest.mark.parametrize("d", [2, 3, 768])
    def test_two_laws_land_on_their_geodesic(self, d):
        # On two laws the extrinsic start lies on their arc, along which the
        # objective is quadratic: the first unit step lands on the weighted
        # geodesic point, and the second confirms it.
        rng = np.random.default_rng(d)
        eps = np.finfo(float).eps
        for theta in np.geomspace(1e-9, 3.0, 30):
            x = random_unit(rng, d)
            u = rng.standard_normal(d)
            u -= (x @ u) * x
            u /= np.linalg.norm(u)
            p = VmfParams(mu=x, kappa=math.exp(rng.uniform(-2, 6)))
            q = VmfParams(mu=math.cos(theta) * x + math.sin(theta) * u,
                          kappa=math.exp(rng.uniform(-2, 6)))
            w = rng.uniform(0.05, 1.0, 2)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # the pi/2 ball, at wide angles
                res = barycenter([p, q], w / w.sum())
            want = wl_interpolate(p, q, w[1] / (w[0] + w[1]))
            assert res.converged and res.iterations <= 2
            assert np.abs(res.params.mu - want.mu).max() <= 1e-12
            assert abs(res.params.kappa - want.kappa) <= 4 * eps * want.kappa

    def test_kappa_sandwich(self):
        rng = np.random.default_rng(48)
        mus = cap_points(rng, np.array([0.0, 1.0, 0]), 0.2, 6)
        ks = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        comps = [VmfParams(mu=m, kappa=k) for m, k in zip(mus, ks)]
        res = barycenter(comps, np.full(6, 1 / 6))
        assert min(ks) <= res.params.kappa <= max(ks)
