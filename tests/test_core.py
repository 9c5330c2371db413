"""Core types, normalizing constants, densities, and the exact sampler."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import ive

from vmfgeom import (SampleSet, VmfMixture, VmfParams, kappa_mle, log_density,
                     log_normalizing_constant, mean_resultant_ratio, sample, sample_mixture)
from vmfgeom.core import log_peak_density
from vmfgeom.fit_eval import FitConfig, fit_em
from vmfgeom.rng import substream

mp.mp.dps = 50


def scipy_mean_resultant(d: int, kappa: float) -> float:
    return float(ive(d / 2, kappa) / ive(d / 2 - 1, kappa))


class TestVmfParams:
    def test_renormalizes_mu(self):
        drift = 1.0 + 4e-7
        p = VmfParams(mu=[0.6 * drift, 0.8 * drift], kappa=1.0)
        assert np.linalg.norm(p.mu) == pytest.approx(1.0, abs=1e-9)
        assert p.mu == pytest.approx([0.6, 0.8])

    def test_small_drift_renormalized_large_drift_rejected(self):
        drifted = np.array([1.0 + 5e-7, 0.0, 0.0])
        assert np.linalg.norm(VmfParams(mu=drifted, kappa=1.0).mu) == pytest.approx(1.0, abs=1e-9)
        # A dedicated unit-direction input must stay within 1e-6 of unit norm.
        with pytest.raises(ValueError):
            VmfParams(mu=[1.1, 0.0], kappa=1.0)

    def test_rejects_zero_vector_and_bad_kappa(self):
        with pytest.raises(ValueError):
            VmfParams(mu=[0.0, 0.0], kappa=1.0)
        for kappa in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                VmfParams(mu=[1.0, 0.0], kappa=kappa)

    def test_immutable(self):
        p = VmfParams(mu=[1.0, 0.0], kappa=2.0)
        with pytest.raises(Exception):
            p.kappa = 3.0
        with pytest.raises(ValueError):
            p.mu[0] = 0.5


class TestVmfMixture:
    def test_weights_renormalized(self):
        comps = (VmfParams(mu=[1, 0], kappa=1.0), VmfParams(mu=[0, 1], kappa=2.0))
        m = VmfMixture(components=comps, weights=[0.5, 0.5000001])
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_weights_and_mixed_dims(self):
        comps = (VmfParams(mu=[1, 0], kappa=1.0), VmfParams(mu=[0, 1], kappa=2.0))
        with pytest.raises(ValueError):
            VmfMixture(components=comps, weights=[0.9, 0.3])
        with pytest.raises(ValueError):
            VmfMixture(components=comps, weights=[1.0, -0.0000001])
        mixed = (VmfParams(mu=[1, 0], kappa=1.0), VmfParams(mu=[0, 0, 1], kappa=1.0))
        with pytest.raises(ValueError):
            VmfMixture(components=mixed, weights=[0.5, 0.5])


class TestLogNormalizingConstant:
    def test_d3_closed_form(self):
        # C_3(k) = k / (4 pi sinh k) via the half-integer Bessel identity.
        for kappa in (0.5, 2.0, 10.0):
            want = math.log(kappa / (4.0 * math.pi * math.sinh(kappa)))
            got = log_normalizing_constant(3, kappa)
            assert math.exp(got) == pytest.approx(math.exp(want), rel=1e-10)

    def test_d2_uniform_limit(self):
        # I_0(0) = 1, so log C_2 tends to -log(2 pi) as kappa -> 0.
        assert log_normalizing_constant(2, 1e-9) == pytest.approx(
            -math.log(2.0 * math.pi), abs=1e-9)

    def test_d10_matches_high_precision_oracle(self):
        # 50-digit evaluation of (d/2-1) log k - (d/2) log 2pi - log I_4(50).
        d, kappa = 10, 50.0
        want = float((mp.mpf(d) / 2 - 1) * mp.log(kappa)
                     - mp.mpf(d) / 2 * mp.log(2 * mp.pi)
                     - mp.log(mp.besseli(mp.mpf(d) / 2 - 1, kappa)))
        assert log_normalizing_constant(d, kappa) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 10, 100, 768])
    def test_finite_and_decreasing(self, d):
        grid = np.geomspace(1e-6, 1e6, 60)
        vals = [log_normalizing_constant(d, k) for k in grid]
        assert all(math.isfinite(v) for v in vals)
        # At tiny kappa the analytic decrement (-A_d) sits below float
        # resolution for large d, so strictness is asserted from 0.1 up and
        # the flat region only needs to hold within a few ulps.
        assert all(b <= a + 8 * np.spacing(abs(a)) for a, b in zip(vals, vals[1:]))
        strict = [log_normalizing_constant(d, k) for k in np.geomspace(0.1, 1e6, 40)]
        assert all(b < a for a, b in zip(strict, strict[1:]))

    def test_errors(self):
        with pytest.raises(ValueError):
            log_normalizing_constant(1, 1.0)
        for kappa in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                log_normalizing_constant(3, kappa)

    @pytest.mark.parametrize("d", [2.5, 3.0, math.nan, math.inf, np.float64(4.0)])
    def test_non_integer_dimension_refused(self, d):
        # 2.5 gave log C = -2.414, A_d = 0.368 and kappa_mle(0.5, 2.5) = 1.476;
        # at NaN kappa_mle named the NaN start of its solve, not the dimension.
        for call in (lambda: log_normalizing_constant(d, 1.0),
                     lambda: log_peak_density(d, np.array([1.0])),
                     lambda: mean_resultant_ratio(d, 1.0),
                     lambda: kappa_mle(0.5, d)):
            with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
                call()

    @pytest.mark.parametrize("d", [3, np.int64(3), np.intc(3), np.uint64(3)],
                             ids=["int", "int64", "intc", "uint64"])
    def test_python_and_numpy_integer_dimensions_accepted(self, d):
        assert log_normalizing_constant(d, 1.0) == log_normalizing_constant(3, 1.0)
        assert mean_resultant_ratio(d, 1.0) == mean_resultant_ratio(3, 1.0)
        assert kappa_mle(0.5, d) == kappa_mle(0.5, 3)


class TestLogDensity:
    def test_at_mean_direction(self):
        p = VmfParams(mu=[1.0, 0.0], kappa=1.0)
        want = log_normalizing_constant(2, 1.0) + 1.0
        assert log_density(p, [1.0, 0.0]) == pytest.approx(want, rel=1e-14)

    def test_antipodal_closed_form(self):
        p = VmfParams(mu=[1.0, 0.0, 0.0], kappa=2.0)
        want = math.log(2.0 / (4.0 * math.pi * math.sinh(2.0))) - 2.0
        assert log_density(p, [-1.0, 0.0, 0.0]) == pytest.approx(want, rel=1e-10)

    def test_orthogonal_gives_log_constant(self):
        p = VmfParams(mu=[1.0, 0.0, 0.0], kappa=7.5)
        want = log_normalizing_constant(3, 7.5)
        assert log_density(p, [0.0, 0.0, 1.0]) == pytest.approx(want, rel=1e-14)

    def test_errors(self):
        p = VmfParams(mu=[1.0, 0.0], kappa=1.0)
        with pytest.raises(ValueError):
            log_density(p, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            log_density(p, [0.9, 0.0])

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 10.0, 100.0])
    def test_density_integrates_to_one_on_circle(self, kappa):
        p = VmfParams(mu=[1.0, 0.0], kappa=kappa)
        theta = np.linspace(0.0, 2.0 * math.pi, 200001)
        xs = np.column_stack([np.cos(theta), np.sin(theta)])
        logc = log_normalizing_constant(2, kappa)
        f = np.exp(logc + kappa * (xs @ p.mu))
        integral = np.trapezoid(f, theta)
        assert integral == pytest.approx(1.0, abs=1e-6)


class TestSampler:
    def test_mean_resultant_length_d3(self):
        # A_3(5) = coth(5) - 1/5.
        p = VmfParams(mu=[0.0, 0.0, 1.0], kappa=5.0)
        s = sample(p, 100_000, seed=11)
        r_bar = float(np.linalg.norm(s.points.mean(axis=0)))
        want = 1.0 / math.tanh(5.0) - 0.2
        assert abs(r_bar - want) < 0.01

    def test_near_uniform_small_mean(self):
        p = VmfParams(mu=[1.0, 0.0, 0.0], kappa=1e-4)
        s = sample(p, 100_000, seed=12)
        assert float(np.linalg.norm(s.points.mean(axis=0))) < 0.02

    def test_deterministic(self):
        p = VmfParams(mu=[0.6, 0.8], kappa=3.0)
        a = sample(p, 500, seed=99)
        b = sample(p, 500, seed=99)
        assert np.array_equal(a.points, b.points)

    def test_rows_unit_norm(self):
        p = VmfParams(mu=np.full(16, 0.25), kappa=50.0)
        s = sample(p, 1000, seed=5)
        assert np.allclose(np.linalg.norm(s.points, axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 10])
    @pytest.mark.parametrize("kappa", [1.0, 10.0])
    def test_moments_match_bessel_ratio(self, d, kappa):
        mu = np.zeros(d)
        mu[0] = 1.0
        p = VmfParams(mu=mu, kappa=kappa)
        s = sample(p, 100_000, seed=d * 37 + int(kappa))
        mean_vec = s.points.mean(axis=0)
        r_bar = float(np.linalg.norm(mean_vec))
        assert abs(r_bar - scipy_mean_resultant(d, kappa)) < 0.01
        if kappa == 10.0:
            assert float(mean_vec @ mu) / r_bar > 0.999


class TestSampleMixture:
    def two_comp(self):
        return VmfMixture(
            components=(VmfParams(mu=[1, 0], kappa=5.0), VmfParams(mu=[0, 1], kappa=5.0)),
            weights=[0.5, 0.5])

    def test_single_component_identical_to_sample(self):
        p = VmfParams(mu=[0.0, 1.0, 0.0], kappa=4.0)
        m = VmfMixture(components=(p,), weights=[1.0])
        a = sample(p, 300, seed=7)
        b = sample_mixture(m, 300, seed=7)
        assert np.array_equal(a.points, b.points)
        assert np.all(b.labels == 0)

    def test_label_counts_binomial(self):
        comps = tuple(VmfParams(mu=mu, kappa=10.0) for mu in
                      ([1, 0], [0, 1], [-1, 0], [0, -1]))
        m = VmfMixture(components=comps, weights=np.full(4, 0.25))
        n = 400_000
        s = sample_mixture(m, n, seed=21)
        sigma = math.sqrt(n * 0.25 * 0.75)
        for k in range(4):
            assert abs(int((s.labels == k).sum()) - n / 4) <= 3.0 * sigma

    def test_deterministic(self):
        m = self.two_comp()
        a = sample_mixture(m, 200, seed=3)
        b = sample_mixture(m, 200, seed=3)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)


class TestSampleSet:
    def test_rejects_non_unit_rows(self):
        with pytest.raises(ValueError):
            SampleSet(points=np.array([[1.0, 0.0], [0.5, 0.5]]))

    def test_labels_length_checked(self):
        with pytest.raises(ValueError):
            SampleSet(points=np.eye(3), labels=np.array([0, 1]))

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-9])  # as given, and renormalized
    def test_caller_array_stays_independent(self, scale):
        pts = np.array([[0.6, 0.8], [1.0, 0.0]]) * scale
        s = SampleSet(points=pts)
        kept = s.points.copy()
        pts[:] = [[0.0, 1.0], [0.0, -1.0]]
        assert np.array_equal(s.points, kept)
        assert pts.flags.writeable

    def test_points_read_only(self):
        s = SampleSet(points=np.eye(3))
        assert not s.points.flags.writeable
        with pytest.raises(ValueError):
            s.points[0, 0] = 0.5


class TestSeeds:
    @pytest.mark.parametrize("seed", [1.5, 1.9, 1.0, "3", True, False, -1, None, np.float64(2.0)])
    def test_non_integer_or_negative_seed_refused(self, seed):
        # int(seed) turned 1.5 and 1.9 into seed 1's stream, "3" into 3 and
        # True into 1.
        law = VmfParams(mu=[1.0, 0.0], kappa=2.0)
        mix = VmfMixture(components=(law, VmfParams(mu=[0.0, 1.0], kappa=3.0)), weights=[0.5, 0.5])
        data = sample(law, 20, seed=0)
        for call in (lambda: substream(seed, "a"), lambda: sample(law, 5, seed=seed),
                     lambda: sample_mixture(mix, 5, seed=seed),
                     lambda: fit_em(data, FitConfig(k=2, restarts=1, seed=seed))):
            with pytest.raises(ValueError, match="seed must be an integer >= 0"):
                call()

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint8(7), np.intc(7)])
    def test_numpy_integer_seeds_accepted(self, seed):
        assert np.array_equal(substream(seed, "a").random(4), substream(7, "a").random(4))
        law = VmfParams(mu=[1.0, 0.0], kappa=2.0)
        assert np.array_equal(sample(law, 5, seed=seed).points, sample(law, 5, seed=7).points)
