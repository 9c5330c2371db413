"""Log-Bessel evaluation against an arbitrary-precision oracle (mpmath)."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln, ive, logsumexp

from vmfgeom.bessel import (_SERIES_BLOCK, _SERIES_TERMS, _log_iv_series, log_bessel_i,
                            log_bessel_i_ratio, mean_resultant_ratio)
from vmfgeom.core import log_normalizing_constant, log_peak_density
from vmfgeom.fit_eval import kappa_mle
from vmfgeom.geometry import _l2_matrix

mp.mp.dps = 50


def mp_log_iv(nu: float, x: float) -> float:
    return float(mp.log(mp.besseli(mp.mpf(nu), mp.mpf(x))))


def ratio_fraction_scalar(nu: float, x: float) -> float:
    """Reference: Perron's continued fraction for I_{nu+1}(x) / I_nu(x) on
    one argument, by the modified Lentz algorithm in Python floats."""
    tiny = 1e-300
    f = c = tiny
    d = 0.0
    for k in range(1, 20000):
        b = 2.0 * (nu + k) / x
        d = b + d
        if d == 0.0:
            d = tiny
        c = b + 1.0 / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-15:
            return f
    raise RuntimeError("stalled")


def log_iv_series_scalar(nu: float, x: float) -> float:
    """Reference: the power series for one argument, as one 1-d logsumexp,
    with numpy's log of x as the array path takes it."""
    m = np.arange(_SERIES_TERMS)
    log_terms = (2 * m + nu) * (np.log(x) - math.log(2.0)) \
        - gammaln(m + 1.0) - gammaln(m + 1.0 + nu)
    return float(logsumexp(log_terms))


class TestSeriesOnArrays:
    # Arguments where ive underflows, so log_bessel_i takes the series.
    GRID = [(nu, float(x)) for nu in (0.5, 4.0, 53.5, 383.0, 499.0)
            for x in np.geomspace(1e-300, 300.0, 200) if ive(nu, x) == 0.0]

    def test_scalar_path_matches_reference_exactly(self):
        assert len(self.GRID) > 300
        # Also where numpy's vectorised log rounds away from math.log (none on
        # some CPUs): the scalar path takes numpy's log, as the reference does.
        x = np.geomspace(1e-300, 50.0, 200_001)  # ive(383, x) underflows below about 52
        odd = [(383.0, float(v)) for v in x[np.log(x) != [math.log(v) for v in x]]]
        for nu, x in self.GRID + odd:
            want = log_iv_series_scalar(nu, x)
            assert log_bessel_i(nu, x) == want
            assert _log_iv_series(nu, x) == want

    def test_array_path_matches_scalars(self):
        # Across several blocks, at most numpy's log rounding (an ulp of log x) apart.
        x = np.geomspace(1e-6, 150.0, 2 * _SERIES_BLOCK + 4)
        got = _log_iv_series(383.0, x)
        want = np.array([log_iv_series_scalar(383.0, v) for v in x])
        assert got.shape == x.shape
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.abs(want))
        assert np.array_equal(_log_iv_series(383.0, x.reshape(3, -1, 1)).ravel(), got)


class TestLogBesselI:
    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 4.0, 49.0, 53.5, 383.0])
    @pytest.mark.parametrize("x", [1e-6, 1e-3, 0.5, 2.0, 50.0, 700.0, 1e4, 1e6])
    def test_matches_mpmath(self, nu, x):
        got = log_bessel_i(nu, x)
        want = mp_log_iv(nu, x)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_branch_seam_agreement(self):
        # The power series must agree with log(ive)+x where both are usable,
        # scanning across the underflow boundary for a high order.
        nu = 383.0
        for x in np.geomspace(60.0, 400.0, 40):
            y = float(ive(nu, x))
            if y <= 0.0:
                continue
            via_scipy = math.log(y) + x
            from vmfgeom.bessel import _log_iv_series
            assert _log_iv_series(nu, x) == pytest.approx(via_scipy, rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            log_bessel_i(1.0, 0.0)
        with pytest.raises(ValueError):
            log_bessel_i(1.0, -2.0)
        with pytest.raises(ValueError):
            log_bessel_i(-1.0, 2.0)
        with pytest.raises(ValueError):
            log_bessel_i(1.0, math.inf)


class TestRatio:
    @pytest.mark.parametrize("d,kappa", [
        (2, 1.0), (3, 5.0), (10, 50.0), (100, 3.0), (768, 1e4), (768, 0.001),
        (3, 1e-6), (2, 1e5),
    ])
    def test_matches_mpmath(self, d, kappa):
        nu = mp.mpf(d) / 2 - 1
        want = float(mp.besseli(nu + 1, mp.mpf(kappa)) / mp.besseli(nu, mp.mpf(kappa)))
        assert mean_resultant_ratio(d, kappa) == pytest.approx(want, rel=1e-13)

    def test_d3_closed_form(self):
        # A_3(kappa) = coth(kappa) - 1/kappa
        for kappa in (0.5, 1.0, 5.0, 20.0):
            want = 1.0 / math.tanh(kappa) - 1.0 / kappa
            assert mean_resultant_ratio(3, kappa) == pytest.approx(want, rel=1e-12)

    def test_monotone_in_kappa_and_bounded(self):
        for d in (2, 3, 10, 768):
            vals = [mean_resultant_ratio(d, k) for k in np.geomspace(1e-3, 1e4, 30)]
            assert all(0.0 < v < 1.0 for v in vals)
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_fraction_over_arrays_matches_scalar(self):
        # Where ive underflows, A_d runs the continued fraction over the array,
        # with the same arithmetic per element as the loop on Python floats.
        kappas = np.geomspace(1e-6, 40.0, 50)
        want = [ratio_fraction_scalar(383.0, float(k)) for k in kappas]
        assert list(mean_resultant_ratio(768, kappas)) == want
        assert [log_bessel_i_ratio(383.0, float(k)) for k in kappas] == want
        assert [log_bessel_i_ratio(nu, 3.0) for nu in (0.0, 0.5, 49.0)] == \
            [ratio_fraction_scalar(nu, 3.0) for nu in (0.0, 0.5, 49.0)]

    @pytest.mark.parametrize("nu", [0.0, 383.0])
    def test_ratio_past_the_fraction(self, nu):
        # The fraction needs more than its 20,000 terms from x ~ 1.7e7 at
        # nu = 0; the ive ratio, and past 1.09e9 the expansion, take over,
        # within an ulp of mpmath.
        for x in (1.78e7, 1e8, 1e9, 1e12):
            with mp.workdps(40):
                want = mp.besseli(nu + 1, x) / mp.besseli(nu, x)
            assert abs(mp.mpf(log_bessel_i_ratio(nu, x)) - want) <= np.finfo(float).eps * want

    def test_ratio_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            log_bessel_i_ratio(1.0, 0.0)
        with pytest.raises(ValueError):
            mean_resultant_ratio(1, 1.0)


class TestRangeGrid:
    """A_d, kappa_mle, log C_d and exact L2 against mpmath over the whole
    supported range: d in {2, 3, 10, 100, 768}, kappa log-spaced over
    [1e-6, 1e8]."""

    KAPPAS = np.geomspace(1e-6, 1e8, 29)

    @pytest.fixture(scope="class", params=[2, 3, 10, 100, 768])
    def oracle(self, request):
        """(d, A_d, dA_d/dkappa, log C_d, log C_d + kappa) at every grid
        kappa, to 40 digits."""
        d = request.param
        nu = mp.mpf(d) / 2 - 1
        a, slope, log_c, peak = [], [], [], []
        with mp.workdps(40):
            for k in self.KAPPAS:
                x = mp.mpf(float(k))
                i0 = mp.besseli(nu, x)
                ratio = mp.besseli(nu + 1, x) / i0
                a.append(float(ratio))
                slope.append(float(1 - ratio ** 2 - (d - 1) * ratio / x))
                log_c.append(nu * mp.log(x) - mp.mpf(d) / 2 * mp.log(2 * mp.pi) - mp.log(i0))
                peak.append(float(log_c[-1] + x))
        return d, np.array(a), np.array(slope), np.array(log_c, dtype=float), np.array(peak)

    def test_mean_resultant_ratio(self, oracle):
        # 1e-12: scipy's ive ratio is within 2e-13 of mpmath at order 383.
        d, want, _, _, _ = oracle
        got = mean_resultant_ratio(d, self.KAPPAS)
        assert np.all(np.isfinite(got))
        assert np.all(np.diff(got) > 0.0)
        assert np.all(np.abs(got - want) <= 1e-12 * want)
        assert [mean_resultant_ratio(d, float(k)) for k in self.KAPPAS] == list(got)

    def test_kappa_mle_round_trip(self, oracle):
        # Newton stops at |A_d(kappa) - r| < 1e-10, which leaves kappa within
        # about 1e-10 / A_d'(kappa) of the root; twice that is allowed.
        d, a, slope, _, _ = oracle
        got = np.array([kappa_mle(r, d) for r in a])
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - self.KAPPAS) <= 2e-10 / slope)

    def test_log_normalizing_constant(self, oracle):
        # Relative to max(|log C_d|, 1): log C_d crosses zero inside the grid.
        d, _, _, want, want_peak = oracle
        got = np.array([log_normalizing_constant(d, float(k)) for k in self.KAPPAS])
        peak = log_peak_density(d, self.KAPPAS)
        assert np.all(np.isfinite(got)) and np.all(np.isfinite(peak))
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), 1.0))
        assert np.all(np.abs(peak - want_peak) <= 1e-14 * np.maximum(np.abs(want_peak), 1.0))
        assert list(got) == list(peak - self.KAPPAS)

    def test_l2_matrix(self, oracle):
        # Closed form: L2^2 = int f_p^2 + int f_q^2 - 2 C(k_p) C(k_q) / C(|k_p mu_p + k_q mu_q|)
        # with int f^2 = C(k)^2 / C(2 k). The kernel's absolute error bound is
        # a small multiple of eps (d + k_p + k_q)(int f_p^2 + int f_q^2); the
        # worst grid case uses 13 of the 32 allowed.
        d = oracle[0]

        def log_c(k):
            nu = mp.mpf(d) / 2 - 1
            if k == 0:
                return mp.loggamma(mp.mpf(d) / 2) - mp.log(2) - mp.mpf(d) / 2 * mp.log(mp.pi)
            return nu * mp.log(k) - mp.mpf(d) / 2 * mp.log(2 * mp.pi) - mp.log(mp.besseli(nu, k))

        # The only grid pairs that raise although their distance is a
        # float64 (2.1e306 to 6.5e307): nearly uniform laws 1e-3 apart at
        # d = 768, where L2^2 is about 1e-21 of int f^2, ten orders below
        # the error bound, and the L2 norms overflow, so 0 would be no answer.
        UNRESOLVED = {(768, k, k, 1e-3) for k in self.KAPPAS[:4]}
        checked = raised = 0
        with mp.workdps(40):
            for kp, kq, theta in [(k, k * ratio, theta) for k in self.KAPPAS for ratio in (1.0, 3.0)
                                  for theta in (0.0, 1e-3, 1.0, math.pi)]:
                mus = np.zeros((2, d))
                mus[0, 0], mus[1, 0], mus[1, 1] = 1.0, math.cos(theta), math.sin(theta)
                p, q = mp.mpf(float(kp)), mp.mpf(float(kq))
                own = mp.exp(2 * log_c(p) - log_c(2 * p)) + mp.exp(2 * log_c(q) - log_c(2 * q))
                res = mp.sqrt(p * p + q * q + 2 * p * q * mp.cos(theta))
                want = own - 2 * mp.exp(log_c(p) + log_c(q) - log_c(res))
                bound = 32 * np.finfo(float).eps * (d + kp + kq) * own
                try:
                    got = _l2_matrix(mus, np.array([kp, kq]))
                except ValueError:
                    assert mp.sqrt(want) > np.finfo(float).max or (d, kp, kq, theta) in UNRESOLVED
                    raised += 1
                    continue
                assert got[0, 1] == got[1, 0] and got[0, 0] == 0.0
                assert abs(mp.mpf(float(got[0, 1])) ** 2 - want) <= bound
                checked += 1
        # At d = 768 the densities' L2 norms overflow, so no two distinct
        # grid laws get a distance: every one raises, also where (kappa in
        # [1e-6, 1e-2]) the bracket cancels to 0 within its error bound.
        # Only the identical pairs are checked, and they give exactly 0.
        assert checked > 0 and (raised > 0) == (d == 768)
        assert d != 768 or checked == len(self.KAPPAS)
        # Identical laws give exactly 0. A resultant past ive's range (about
        # 1.2e9) gets a distance, except at d = 768, where the norms overflow.
        assert _l2_matrix(np.eye(d)[[0, 0]], np.array([5.0, 5.0]))[0, 1] == 0.0
        mus = np.stack([np.eye(d)[0], np.eye(d)[0] * math.cos(0.1) + np.eye(d)[1] * math.sin(0.1)])
        if d == 768:
            with pytest.raises(ValueError):
                _l2_matrix(mus, np.array([6e8, 6e8]))
            return
        got = _l2_matrix(mus, np.array([6e8, 6e8]))[0, 1]
        with mp.workdps(50):
            k = mp.mpf(6e8)
            own = 2 * mp.exp(2 * log_c(k) - log_c(2 * k))
            want = own - 2 * mp.exp(2 * log_c(k) - log_c(k * mp.sqrt(2 + 2 * mp.cos(0.1))))
            bound = 32 * np.finfo(float).eps * (d + 1.2e9) * own
            assert abs(mp.mpf(float(got)) ** 2 - want) <= bound

    @pytest.mark.parametrize("d", [2, 3, 10, 100, 768])
    def test_mean_resultant_ratio_beyond_ive(self, d):
        # Above kappa ~ 1.09e9 ive returns NaN; the large-argument expansion
        # takes over, within one rounding of mpmath.
        kappas = np.array([1.2e9, 1e10, 1e12])
        got = mean_resultant_ratio(d, kappas)
        nu = mp.mpf(d) / 2 - 1
        with mp.workdps(40):
            want = [float(mp.besseli(nu + 1, mp.mpf(k)) / mp.besseli(nu, mp.mpf(k)))
                    for k in kappas]
        assert np.all(np.abs(got - want) <= np.finfo(float).eps * np.array(want))
        assert np.all(np.diff(got) > 0.0) and np.all(got < 1.0)
        assert [mean_resultant_ratio(d, float(k)) for k in kappas] == list(got)

    @pytest.mark.parametrize("d", [2, 3, 10, 100, 768])
    def test_log_bessel_beyond_ive(self, d):
        # Above kappa ~ 1.09e9 ive returns NaN; the large-argument expansion
        # takes over. log C_d + kappa cancels log10(kappa) digits of the
        # oracle, which therefore carries that many plus 30.
        kappas = np.array([1.2e9, 1e12, 1e100, 1e300])
        nu = d / 2.0 - 1.0
        got_i = [log_bessel_i(nu, float(k)) for k in kappas]
        got_c = [log_normalizing_constant(d, float(k)) for k in kappas]
        peak = log_peak_density(d, kappas)
        for k, gi, gc, gp in zip(kappas, got_i, got_c, peak):
            with mp.workdps(int(math.log10(k)) + 30):
                x = mp.mpf(float(k))
                log_i = mp.log(mp.besseli(mp.mpf(d) / 2 - 1, x))
                log_c = nu * mp.log(x) - mp.mpf(d) / 2 * mp.log(2 * mp.pi) - log_i
                for got, want in ((gi, log_i), (gc, log_c), (gp, log_c + x)):
                    assert abs(mp.mpf(float(got)) - want) <= 1e-14 * max(abs(want), 1)
        assert got_c == list(peak - kappas)

    def test_kappa_mle_near_one(self):
        # r = 1 - 1e-12 at d = 2 lies at kappa ~ 5e11, past ive's range.
        kappa = kappa_mle(1.0 - 1e-12, 2)
        assert math.isfinite(kappa)
        assert mean_resultant_ratio(2, kappa) == pytest.approx(1.0 - 1e-12, abs=1e-10)
