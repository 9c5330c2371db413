"""Sphere maps, the WL distance, interpolation, and exact and Monte-Carlo L2."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from vmfgeom import (AntipodalMeansError, DistanceMatrix, TangentVector,
                     VmfParams, exp_map, geodesic_distance, geometry,
                     l2_distance, l2_distance_mc, log_map, log_normalizing_constant,
                     pairwise_matrix, wl_distance, wl_interpolate)
from vmfgeom.core import log_peak_density
from vmfgeom.geometry import MAX_PAIRWISE_LAWS


def random_unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_params(rng, d, kappa_range=(0.05, 50.0)):
    kappa = math.exp(rng.uniform(math.log(kappa_range[0]), math.log(kappa_range[1])))
    return VmfParams(mu=random_unit(rng, d), kappa=kappa)


def wl_scalar(p, q):
    """Oracle: the WL closed form evaluated one pair at a time in Python floats."""
    ang = math.acos(min(1.0, max(-1.0, float(p.mu @ q.mu))))
    ds = 1.0 / math.sqrt(p.kappa) - 1.0 / math.sqrt(q.kappa)
    return math.sqrt(ang * ang + (p.d - 1) * ds * ds)


class TestGeodesicDistance:
    def test_identity_antipodal_orthogonal(self):
        x = np.array([1.0, 0.0])
        assert geodesic_distance(x, x) == 0.0
        assert geodesic_distance(x, -x) == pytest.approx(math.pi)
        assert geodesic_distance(x, [0.0, 1.0]) == pytest.approx(math.pi / 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            geodesic_distance([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_clamp_handles_rounding(self):
        x = random_unit(np.random.default_rng(0), 5)
        assert geodesic_distance(x, x.copy()) == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.slow
    @pytest.mark.parametrize("d", [2, 3, 768])
    def test_small_and_near_pi_angles_match_mpmath(self, d):
        # Unit vectors from 1e-12 rad to pi - 1e-9 apart, against the angle
        # between their directions at 60 digits. Their norms are 1 only to
        # rounding, which moves that angle by up to about eps, so the bound is
        # absolute: 2 eps. acos of the cosine returned 0 below about 1.5e-8
        # rad, and was 4.4e-5 relative off at 1e-6.
        rng = np.random.default_rng(d)
        angles = np.concatenate([np.geomspace(1e-12, 1.0, 25),
                                 math.pi - np.geomspace(1e-9, 1.0, 25)])
        for angle in angles:
            x, u = random_unit(rng, d), rng.standard_normal(d)
            u -= (u @ x) * x
            y = math.cos(angle) * x + math.sin(angle) * u / np.linalg.norm(u)
            y /= np.linalg.norm(y)
            with mpmath.workdps(60):
                ux, uy = (mpmath.matrix(v.tolist()) / mpmath.norm(mpmath.matrix(v.tolist()))
                          for v in (x, y))
                want = 2 * mpmath.atan2(mpmath.norm(ux - uy), mpmath.norm(ux + uy))
                assert abs(geodesic_distance(x, y) - want) <= 2 * np.finfo(float).eps, angle


class TestWlDistance:
    def test_coincident_laws(self):
        p = VmfParams(mu=[0.6, 0.8], kappa=3.0)
        assert wl_distance(p, p) == 0.0

    def test_worked_example_closed_form(self):
        # d=3, orthogonal means, kappas 1 and 4:
        # sqrt((pi/2)^2 + 2 (1 - 1/2)^2) = 1.7226146116506558
        p = VmfParams(mu=[1, 0, 0], kappa=1.0)
        q = VmfParams(mu=[0, 1, 0], kappa=4.0)
        want = math.sqrt((math.pi / 2) ** 2 + 2 * 0.25)
        assert wl_distance(p, q) == pytest.approx(want, abs=1e-12)
        assert wl_distance(p, q) == pytest.approx(1.7226146116506558, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 768])
    def test_finite_at_the_smallest_concentration(self, d):
        # (1/sqrt(5e-324) - 1)^2 overflows float64; the distance, about
        # 4.5e161 sqrt(d - 1), does not.
        p = VmfParams(mu=np.eye(d)[0], kappa=5e-324)
        q = VmfParams(mu=np.eye(d)[0], kappa=1.0)
        want = math.sqrt(d - 1) * (1.0 / math.sqrt(5e-324) - 1.0)
        assert wl_distance(p, q) == pytest.approx(want, rel=1e-15)
        assert pairwise_matrix([p, q], "wl").entries[0, 1] == pytest.approx(want, rel=1e-15)

    def test_high_concentration_reduces_to_geodesic(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            mu1, mu2 = random_unit(rng, 4), random_unit(rng, 4)
            p = VmfParams(mu=mu1, kappa=1e12)
            q = VmfParams(mu=mu2, kappa=1e12)
            assert abs(wl_distance(p, q) - geodesic_distance(mu1, mu2)) < 1e-5

    def test_low_concentration_blowup(self):
        rng = np.random.default_rng(2)
        mu1, mu2 = random_unit(rng, 3), random_unit(rng, 3)
        vals = []
        for k1 in (1e-2, 1e-4, 1e-6):
            vals.append(wl_distance(VmfParams(mu=mu1, kappa=k1),
                                    VmfParams(mu=mu2, kappa=2 * k1)))
        assert vals[0] < vals[1] < vals[2]

    def test_product_decomposition_identity(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 10):
            p, q = random_params(rng, d), random_params(rng, d)
            ang = geodesic_distance(p.mu, q.mu)
            ds = 1 / math.sqrt(p.kappa) - 1 / math.sqrt(q.kappa)
            assert wl_distance(p, q) ** 2 == pytest.approx(
                ang ** 2 + (d - 1) * ds ** 2, rel=1e-14)

    def test_rotational_invariance(self):
        rng = np.random.default_rng(4)
        for d in (3, 10, 50):
            p, q = random_params(rng, d), random_params(rng, d)
            qmat, _ = np.linalg.qr(rng.standard_normal((d, d)))
            p2 = VmfParams(mu=qmat @ p.mu, kappa=p.kappa)
            q2 = VmfParams(mu=qmat @ q.mu, kappa=q.kappa)
            assert wl_distance(p2, q2) == pytest.approx(wl_distance(p, q), abs=1e-12)

    def test_metric_axioms_small_scale(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 10):
            for _ in range(200):
                p, q, r = (random_params(rng, d) for _ in range(3))
                dpq, dqp = wl_distance(p, q), wl_distance(q, p)
                assert dpq >= 0.0
                assert dpq == dqp
                assert wl_distance(p, r) <= dpq + wl_distance(q, r) + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wl_distance(VmfParams(mu=[1, 0], kappa=1.0),
                        VmfParams(mu=[1, 0, 0], kappa=1.0))


class TestExpLogMaps:
    def test_zero_tangent(self):
        x = np.array([1.0, 0.0])
        assert exp_map(TangentVector(base=x, vec=np.zeros(2))) == pytest.approx(x)

    def test_quarter_circle(self):
        t = TangentVector(base=np.array([1.0, 0.0]), vec=np.array([0.0, math.pi / 2]))
        assert exp_map(t) == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_log_map_quarter_circle(self):
        t = log_map([1.0, 0.0], [0.0, 1.0])
        assert t.vec == pytest.approx([0.0, math.pi / 2], abs=1e-12)

    def test_log_of_same_point_is_zero(self):
        x = random_unit(np.random.default_rng(6), 7)
        assert log_map(x, x).norm == 0.0

    def test_log_norm_equals_geodesic_distance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x, y = random_unit(rng, 5), random_unit(rng, 5)
            assert log_map(x, y).norm == pytest.approx(geodesic_distance(x, y), abs=1e-12)

    def test_antipodal_log_rejected(self):
        x = np.array([0.0, 0.0, 1.0])
        with pytest.raises(AntipodalMeansError):
            log_map(x, -x)

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_inverse_pair_roundtrip(self, d):
        rng = np.random.default_rng(d)
        for _ in range(2000):
            x, y = random_unit(rng, d), random_unit(rng, d)
            if geodesic_distance(x, y) > math.pi - 1e-3:
                continue
            t = log_map(x, y)
            assert exp_map(t) == pytest.approx(y, abs=1e-10)

    @given(st.integers(2, 8), st.floats(1e-6, 3.0), st.integers(0, 10_000))
    def test_exp_then_log_recovers_tangent(self, d, norm, seed):
        rng = np.random.default_rng(seed)
        x = random_unit(rng, d)
        v = rng.standard_normal(d)
        v -= (x @ v) * x
        if np.linalg.norm(v) < 1e-12:
            return
        v *= norm / np.linalg.norm(v)
        y = exp_map(TangentVector(base=x, vec=v))
        back = log_map(x, y)
        assert back.vec == pytest.approx(v, abs=1e-9)


def axis_pairs(d, seed):
    """Yields (x, y, angle, axes, signs): unit vectors in the plane of two
    random coordinate axes, at angles from 1e-9 to pi - 1e-3, and the mpmath
    angle between the floats as given. Each vector has at most two nonzero
    entries, so it is unit to within about 1e-18."""
    rng = np.random.default_rng(seed)
    for theta in np.geomspace(1e-9, math.pi - 1e-3, 40):
        i, j = rng.choice(d, 2, replace=False)
        si, sj = rng.choice([-1.0, 1.0], 2)
        x, y = np.zeros(d), np.zeros(d)
        x[i], y[i], y[j] = si, si * math.cos(theta), sj * math.sin(theta)
        with mpmath.workdps(40):
            angle = mpmath.atan2(mpmath.mpf(y[j]) * sj, mpmath.mpf(y[i]) * si)
        yield x, y, angle, (i, j), (si, sj)


class TestLogMapAccuracy:
    """Against mpmath: the angle 2 atan2(|x - y|, |x + y|) keeps its relative
    accuracy at small angles, where acos of the rounded cosine loses it (and
    reads 0 below about 1.5e-8 rad)."""

    @pytest.mark.parametrize("d", [2, 3, 768])
    def test_log_map_length_and_direction(self, d):
        eps = np.finfo(float).eps
        for x, y, angle, (i, j), (_, sj) in axis_pairs(d, seed=d):
            v = log_map(x, y).vec
            assert abs(mpmath.mpf(float(np.linalg.norm(v))) - angle) <= 4 * eps * angle
            assert abs(v[i]) <= 4 * eps * angle
            assert abs(mpmath.mpf(v[j]) - sj * angle) <= 4 * eps * angle
            assert np.count_nonzero(v) <= 2

    @pytest.mark.parametrize("d", [2, 3, 768])
    def test_interpolated_midpoint(self, d):
        # The midpoint of a nearly antipodal pair is ill-conditioned in the
        # tangent direction (errors grow as 1/sin theta), hence the bound.
        eps = np.finfo(float).eps
        for x, y, angle, (i, j), (si, sj) in axis_pairs(d, seed=100 + d):
            mid = wl_interpolate(VmfParams(mu=x, kappa=1.0), VmfParams(mu=y, kappa=2.0), 0.5).mu
            with mpmath.workdps(40):
                want_i, want_j = si * mpmath.cos(angle / 2), sj * mpmath.sin(angle / 2)
            bound = 4 * eps / min(1.0, math.pi - float(angle))
            assert abs(mpmath.mpf(mid[i]) - want_i) <= bound
            assert abs(mpmath.mpf(mid[j]) - want_j) <= bound


class TestInterpolation:
    def p(self):
        return VmfParams(mu=[1.0, 0.0, 0.0], kappa=1.0)

    def q(self):
        return VmfParams(mu=[0.0, 1.0, 0.0], kappa=4.0)

    def test_endpoints_exact(self):
        p, q = self.p(), self.q()
        assert wl_interpolate(p, q, 0.0) is p
        assert wl_interpolate(p, q, 1.0) is q

    def test_midpoint_concentration(self):
        mid = wl_interpolate(self.p(), self.q(), 0.5)
        assert mid.kappa == pytest.approx(16.0 / 9.0, abs=1e-12)

    def test_constant_speed(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            p, q = random_params(rng, d), random_params(rng, d)
            if geodesic_distance(p.mu, q.mu) > math.pi - 1e-3:
                continue
            total = wl_distance(p, q)
            for t in (0.25, 0.5, 0.75):
                r = wl_interpolate(p, q, t)
                assert wl_distance(p, r) == pytest.approx(t * total, abs=1e-8)

    def test_antipodal_and_bad_t_rejected(self):
        p = VmfParams(mu=[1.0, 0.0], kappa=1.0)
        q = VmfParams(mu=[-1.0, 0.0], kappa=1.0)
        with pytest.raises(AntipodalMeansError):
            wl_interpolate(p, q, 0.5)
        with pytest.raises(ValueError):
            wl_interpolate(p, self.p(), 0.5)
        with pytest.raises(ValueError):
            wl_interpolate(p, VmfParams(mu=[0.0, 1.0], kappa=1.0), 1.5)


class TestL2MonteCarlo:
    def test_identical_laws_near_zero(self):
        p = VmfParams(mu=[0.6, 0.8], kappa=2.0)
        assert l2_distance_mc(p, p, seed=1, rel_tol=1e-6) < 1e-6

    def test_symmetric_under_shared_seed(self):
        p = VmfParams(mu=[1.0, 0.0, 0.0], kappa=2.0)
        q = VmfParams(mu=[0.0, 1.0, 0.0], kappa=5.0)
        assert l2_distance_mc(p, q, seed=9, rel_tol=1e-3) == \
            l2_distance_mc(q, p, seed=9, rel_tol=1e-3)

    def test_matches_circle_quadrature(self):
        # Oracle: dense trapezoid quadrature of (f1 - f2)^2 over the circle.
        kappa = 1.0
        p = VmfParams(mu=[1.0, 0.0], kappa=kappa)
        q = VmfParams(mu=[0.0, 1.0], kappa=kappa)
        theta = np.linspace(0.0, 2.0 * math.pi, 10_000_001)
        logc = log_normalizing_constant(2, kappa)
        f1 = np.exp(logc + kappa * np.cos(theta))
        f2 = np.exp(logc + kappa * np.sin(theta))
        oracle = math.sqrt(np.trapezoid((f1 - f2) ** 2, theta))
        got = l2_distance_mc(p, q, seed=123, rel_tol=5e-3)
        assert got == pytest.approx(oracle, rel=0.02)

    def test_deterministic(self):
        p = VmfParams(mu=[1.0, 0.0], kappa=1.0)
        q = VmfParams(mu=[0.0, 1.0], kappa=3.0)
        assert l2_distance_mc(p, q, seed=4, rel_tol=1e-3) == \
            l2_distance_mc(p, q, seed=4, rel_tol=1e-3)

    def test_draws_in_bounded_chunks(self, monkeypatch):
        # At the default max_draws the doubling schedule reaches a batch of
        # 2^22 points, drawn at most 2^20 floats at a time.
        sizes, draw = [], geometry._uniform_sphere

        def recording(rng, n, d):
            sizes.append(n * d)
            return draw(rng, n, d)

        monkeypatch.setattr(geometry, "_uniform_sphere", recording)
        p = VmfParams(mu=[1.0, 0.0], kappa=1.0)
        q = VmfParams(mu=[0.0, 1.0], kappa=3.0)
        l2_distance_mc(p, q, seed=4, rel_tol=0.0, max_draws=2 ** 23)
        assert max(sizes) <= 2 ** 20 and sum(sizes) == 2 * 2 ** 23
        # Smaller chunks take the same stream: only the summation order moves.
        whole = l2_distance_mc(p, q, seed=4, rel_tol=0.0, max_draws=2 ** 16)
        monkeypatch.setattr(geometry, "_MC_CHUNK", 2 ** 11)
        assert l2_distance_mc(p, q, seed=4, rel_tol=0.0, max_draws=2 ** 16) == \
            pytest.approx(whole, rel=1e-13)


def mp_l2_squared(p, q):
    """(L2^2, int f_p^2 + int f_q^2) of two laws at 50 digits, from the
    closed form int f_p f_q = C(k_p) C(k_q) / C(|k_p mu_p + k_q mu_q|)."""
    with mpmath.workdps(50):
        d = p.d
        nu = mpmath.mpf(d) / 2 - 1

        def log_c(k):
            if k == 0:
                return mpmath.loggamma(mpmath.mpf(d) / 2) - mpmath.log(2) \
                    - (mpmath.mpf(d) / 2) * mpmath.log(mpmath.pi)
            return nu * mpmath.log(k) - (mpmath.mpf(d) / 2) * mpmath.log(2 * mpmath.pi) \
                - mpmath.log(mpmath.besseli(nu, k))

        kp, kq = mpmath.mpf(p.kappa), mpmath.mpf(q.kappa)
        r = mpmath.sqrt(sum((kp * mpmath.mpf(a) + kq * mpmath.mpf(b)) ** 2
                            for a, b in zip(p.mu.tolist(), q.mu.tolist())))
        sp = mpmath.exp(2 * log_c(kp) - log_c(2 * kp))
        sq = mpmath.exp(2 * log_c(kq) - log_c(2 * kq))
        cross = mpmath.exp(log_c(kp) + log_c(kq) - log_c(r))
        return sp + sq - 2 * cross, sp + sq


class TestL2Exact:
    KAPPAS = (1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e5)
    ANGLES = (0.0, 1e-4, 0.3, 2.0, math.pi)

    @pytest.mark.parametrize("d", [2, 3, 10, 100])
    def test_matches_mpmath_within_stated_bound(self, d):
        # |error of L2^2| <= c eps (d + k_p + k_q) (int f_p^2 + int f_q^2); the
        # grid's worst case is c = 10.2 (d = 100, k = 1e-6, uniform-like laws).
        eps = np.finfo(float).eps
        worst = 0.0
        for angle in self.ANGLES:
            mu_q = np.zeros(d)
            mu_q[0], mu_q[1] = math.cos(angle), math.sin(angle)
            for kp in self.KAPPAS:
                for kq in self.KAPPAS:
                    p = VmfParams(mu=np.eye(d)[0], kappa=kp)
                    q = VmfParams(mu=mu_q, kappa=kq)
                    got = l2_distance(p, q)
                    want, norm = mp_l2_squared(p, q)
                    err = abs(mpmath.mpf(got) ** 2 - want) / (eps * (d + kp + kq) * norm)
                    worst = max(worst, float(err))
        assert worst <= 32.0

    def test_high_concentration_stays_accurate(self):
        # With exp(kappa) cancelled analytically, kappa = 1e8 keeps full
        # relative accuracy for well-separated laws.
        p = VmfParams(mu=[1.0, 0.0], kappa=1e8)
        q = VmfParams(mu=[0.0, 1.0], kappa=1e-300)
        want, _ = mp_l2_squared(p, q)
        assert l2_distance(p, q) == pytest.approx(float(mpmath.sqrt(want)), rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_agrees_with_monte_carlo(self, d):
        # l2_distance_mc at rel_tol = 0 averages exactly max_draws uniform
        # draws; its L2^2 must lie within 5 standard errors of the exact value,
        # with the standard error estimated from an independent sample.
        draws = 2 ** 17
        rng = np.random.default_rng(d)
        log_area = math.log(2.0) + (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0)
        for kp, kq in ((0.1, 0.5), (1.0, 3.0), (2.0, 10.0), (10.0, 10.0)):
            p, q = random_params(rng, d, (kp, kp)), random_params(rng, d, (kq, kq))
            x = rng.standard_normal((2 ** 15, d))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            fp = np.exp(log_normalizing_constant(d, p.kappa) + p.kappa * (x @ p.mu))
            fq = np.exp(log_normalizing_constant(d, q.kappa) + q.kappa * (x @ q.mu))
            se = math.exp(log_area) * float(np.std((fp - fq) ** 2)) / math.sqrt(draws)
            mc = l2_distance_mc(p, q, seed=d, rel_tol=0.0, max_draws=draws)
            assert abs(mc ** 2 - l2_distance(p, q) ** 2) <= 5.0 * se

    def test_matches_circle_quadrature(self):
        kappa = 1.0
        p = VmfParams(mu=[1.0, 0.0], kappa=kappa)
        q = VmfParams(mu=[0.0, 1.0], kappa=kappa)
        theta = np.linspace(0.0, 2.0 * math.pi, 1_000_001)
        logc = log_normalizing_constant(2, kappa)
        f1 = np.exp(logc + kappa * np.cos(theta))
        f2 = np.exp(logc + kappa * np.sin(theta))
        oracle = math.sqrt(np.trapezoid((f1 - f2) ** 2, theta))
        assert l2_distance(p, q) == pytest.approx(oracle, rel=1e-10)

    def test_identical_laws_exactly_zero(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 10, 100):
            for kappa in (1e-6, 0.7, 10.0, 1e5, 1e8):
                p = VmfParams(mu=random_unit(rng, d), kappa=kappa)
                assert l2_distance(p, p) == 0.0
                twin = VmfParams(mu=p.mu.copy(), kappa=kappa)
                dm = pairwise_matrix([p, random_params(rng, d), twin], metric="l2")
                assert dm.entries[0, 2] == 0.0 and dm.entries[0, 1] > 0.0

    def test_symmetric_in_its_arguments(self):
        rng = np.random.default_rng(12)
        for d in (2, 3, 10):
            p, q = random_params(rng, d), random_params(rng, d)
            assert l2_distance(p, q) == l2_distance(q, p)

    def test_d768_raises(self):
        d = 768
        p = VmfParams(mu=np.eye(d)[0], kappa=1e-6)
        q = VmfParams(mu=np.eye(d)[1], kappa=1e-3)
        with pytest.raises(ValueError, match="float64"):
            l2_distance(p, q)

    def test_beyond_bessel_range_raises(self):
        p = VmfParams(mu=[1.0, 0.0], kappa=1e308)
        q = VmfParams(mu=[0.0, 1.0], kappa=1e-300)
        with pytest.raises(ValueError, match="float64"):
            l2_distance(p, q)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            l2_distance(VmfParams(mu=[1, 0], kappa=1.0), VmfParams(mu=[1, 0, 0], kappa=1.0))


class TestLogPeakDensity:
    @pytest.mark.parametrize("d", [2, 3, 10, 100, 768])
    def test_matches_scalar_constant(self, d):
        kappas = np.array([1e-6, 1e-2, 1.0, 30.0, 500.0, 1e4, 1e8])
        got = log_peak_density(d, kappas)
        want = np.array([log_normalizing_constant(d, k) + k for k in kappas])
        # The scalar path rounds log C to eps * kappa before kappa is added back.
        tol = 1e-12 * np.abs(want) + 4.0 * np.finfo(float).eps * (kappas + 1.0)
        assert np.all(np.abs(got - want) <= tol)

    @pytest.mark.parametrize("d", [2, 3, 768])
    def test_zero_is_the_uniform_density(self, d):
        log_area = math.log(2.0) + (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0)
        assert log_peak_density(d, np.array([0.0]))[0] == pytest.approx(-log_area, rel=1e-14)

    def test_beyond_ive_range_matches_mpmath(self):
        # Past kappa ~ 1.09e9, where ive returns NaN; only kappa = inf is NaN.
        kappas = np.array([1.2e9, 1e10, 1e12])
        got = log_peak_density(3, np.append(kappas, np.inf))
        assert np.isnan(got[-1])
        with mpmath.workdps(50):
            for k, value in zip(kappas, got):
                x = mpmath.mpf(float(k))
                want = (0.5 * mpmath.log(x) - 1.5 * mpmath.log(2 * mpmath.pi)
                        - mpmath.log(mpmath.besseli(0.5, x)) + x)
                assert abs(mpmath.mpf(float(value)) - want) <= 1e-14 * abs(want)


class TestPairwiseMatrix:
    def laws(self, n=12, d=3, seed=10):
        rng = np.random.default_rng(seed)
        return [random_params(rng, d) for _ in range(n)]

    def test_single_item(self):
        dm = pairwise_matrix(self.laws(1), metric="wl")
        assert dm.n == 1 and dm.entries[0, 0] == 0.0
        dm = pairwise_matrix(self.laws(1), metric="l2")
        assert dm.n == 1 and dm.entries[0, 0] == 0.0

    def test_two_items(self):
        laws = self.laws(2)
        dm = pairwise_matrix(laws, metric="wl")
        assert dm.entries[0, 1] == wl_distance(laws[0], laws[1])
        dm = pairwise_matrix(laws, metric="l2")
        assert dm.entries[0, 1] == l2_distance(laws[0], laws[1])

    def test_matches_elementwise_recompute(self):
        laws = self.laws(15)
        dm = pairwise_matrix(laws, metric="wl")
        for i in range(15):
            for j in range(15):
                want = 0.0 if i == j else wl_distance(laws[i], laws[j])
                assert dm.entries[i, j] == pytest.approx(want, abs=1e-15)

    def test_exactly_symmetric(self):
        dm = pairwise_matrix(self.laws(9), metric="l2")
        assert np.array_equal(dm.entries, dm.entries.T)
        assert np.all(np.diag(dm.entries) == 0.0)

    def test_l2_deterministic_and_matches_scalar(self):
        for d in (2, 3, 10, 100):
            laws = self.laws(30, d=d)
            a = pairwise_matrix(laws, metric="l2")
            b = pairwise_matrix(laws, metric="l2")
            assert np.array_equal(a.entries, b.entries)
            for i in range(30):
                for j in range(30):
                    if i != j:
                        assert l2_distance(laws[i], laws[j]) == a.entries[i, j]

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            pairwise_matrix(self.laws(3), metric="cosine")
        with pytest.raises(ValueError):
            pairwise_matrix(self.laws(3), metric="l2_mc")


class TestWlKernel:
    """pairwise_matrix(..., "wl") and wl_distance share one array kernel."""

    # The concentration ranges keep every distance below 8, where one ulp is
    # 8.9e-16, so the tolerances read as "one ulp" and "a few ulp".
    @pytest.mark.parametrize("d, kappas, tol", [
        (2, (0.5, 50.0), 1e-15), (3, (0.5, 50.0), 1e-15), (10, (0.5, 50.0), 1e-15),
        (768, (100.0, 2000.0), 4e-15)])
    def test_matches_scalar_oracle(self, d, kappas, tol):
        rng = np.random.default_rng(d)
        # Generic directions: near +-1, acos turns the last-bit differences
        # between a BLAS product and a plain dot product into errors of up
        # to about sqrt(2 eps), in the oracle as much as in the kernel.
        laws = [random_params(rng, d, kappas) for _ in range(40)]
        dm = pairwise_matrix(laws, metric="wl").entries
        for i, p in enumerate(laws):
            for j, q in enumerate(laws):
                if i != j:
                    want = wl_scalar(p, q)
                    assert abs(dm[i, j] - want) <= tol
                    assert abs(wl_distance(p, q) - want) <= tol

    @pytest.mark.parametrize("d", [2, 3, 10, 768])
    def test_exactly_symmetric_zero_diagonal(self, d):
        rng = np.random.default_rng(100 + d)
        laws = [random_params(rng, d) for _ in range(25)]
        dm = pairwise_matrix(laws, metric="wl").entries
        assert np.array_equal(dm, dm.T)
        assert np.all(np.diag(dm) == 0.0)
        for p, q in zip(laws[:-1], laws[1:]):
            assert wl_distance(p, q) == wl_distance(q, p)

    def test_sim1_within_benchmark_tolerance(self):
        # The benchmark refuses a sim1 WL matrix more than 1e-12 away from
        # this reference, built on the same BLAS product.
        from vmfgeom.experiments import sim1_population
        laws, _ = sim1_population(0)
        mus = np.stack([p.mu for p in laws])
        s = 1.0 / np.sqrt([p.kappa for p in laws])
        ang = np.arccos(np.clip(mus @ mus.T, -1.0, 1.0))
        ref = np.sqrt(ang ** 2 + (s[:, None] - s[None, :]) ** 2)
        np.fill_diagonal(ref, 0.0)
        dm = pairwise_matrix(laws, metric="wl").entries
        assert np.abs(dm - ref).max() <= 1e-12

    @pytest.mark.parametrize("metric", ["wl", "l2"])
    def test_too_many_laws_rejected_before_allocating(self, metric):
        law = VmfParams(mu=[1.0, 0.0], kappa=1.0)
        laws = [law] * (MAX_PAIRWISE_LAWS + 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="pairwise limit"):
                pairwise_matrix(laws, metric=metric)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # one n x n float64 matrix would take 200 MB
        assert MAX_PAIRWISE_LAWS >= 2_000  # a 2,000-component mixture still reduces


class TestTangentVectorType:
    def test_reprojected_on_construction(self):
        base = np.array([1.0, 0.0, 0.0])
        t = TangentVector(base=base, vec=np.array([5.0, 1.0, 2.0]))
        assert abs(float(t.base @ t.vec)) < 1e-9
        assert t.vec == pytest.approx([0.0, 1.0, 2.0], abs=1e-12)

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            TangentVector(base=np.array([1.0, 0.0]), vec=np.array([0.0, 1.0, 0.0]))


class TestPairwiseOnSimPopulation:
    def test_four_hundred_laws_match_elementwise(self):
        from vmfgeom.experiments import sim1_population
        laws, _ = sim1_population(5)
        dm = pairwise_matrix(laws, metric="wl")
        rng = np.random.default_rng(0)
        for _ in range(2000):
            i, j = rng.integers(0, 400, size=2)
            want = 0.0 if i == j else wl_distance(laws[i], laws[j])
            assert dm.entries[i, j] == want


class TestDistanceMatrixType:
    def test_validation(self):
        with pytest.raises(ValueError):
            DistanceMatrix(entries=np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            DistanceMatrix(entries=np.array([[0.5]]))
        with pytest.raises(ValueError):
            DistanceMatrix(entries=np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_accepts_valid(self):
        m = DistanceMatrix(entries=np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert m.n == 2
