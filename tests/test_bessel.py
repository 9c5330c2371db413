"""Log-Bessel evaluation against an arbitrary-precision oracle (mpmath)."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln, i0e, i1e, ive

from vmfgeom.bessel import (_IVE_MAX, _ive, _series, log_bessel_i, log_bessel_i_ratio, log_ive,
                            mean_resultant_ratio)
from vmfgeom.core import log_normalizing_constant, log_peak_density
from vmfgeom.fit_eval import kappa_mle
from vmfgeom.geometry import _l2_matrix

mp.mp.dps = 50
EPS = np.finfo(float).eps


def mp_log_iv(nu: float, x: float) -> float:
    return float(mp.log(mp.besseli(mp.mpf(nu), mp.mpf(x))))


def mp_ratio(nu: float, x: float):
    """I_{nu+1}(x) / I_nu(x) at 50 digits, as an mpf."""
    return mp.besseli(mp.mpf(nu) + 1, mp.mpf(x)) / mp.besseli(mp.mpf(nu), mp.mpf(x))


def ratio_fraction_scalar(nu: float, x: float) -> float:
    """Cross-check: Perron's continued fraction for I_{nu+1}(x) / I_nu(x) on
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


class TestSeriesOnArrays:
    # Arguments where ive underflows, so log_bessel_i takes the series.
    GRID = [(nu, float(x)) for nu in (0.5, 4.0, 53.5, 383.0, 499.0)
            for x in np.geomspace(1e-300, 300.0, 200) if ive(nu, x) == 0.0]

    def test_scalar_path_matches_mpmath(self):
        assert len(self.GRID) > 300
        for nu, x in self.GRID:
            want = mp_log_iv(nu, x)
            assert abs(log_bessel_i(nu, x) - want) <= 1e-15 * max(abs(want), 1.0)

    def test_array_path_matches_scalars(self):
        # Each element sums its own terms: an array gives, bit for bit, what
        # one-element calls give, in any shape.
        x = np.geomspace(1e-6, 150.0, 8196)  # ive(383, x) underflows below about 52
        got = log_ive(383.0, x)
        assert got.shape == x.shape
        assert list(got) == [log_ive(383.0, np.array([v]))[0] for v in x]
        assert np.array_equal(log_ive(383.0, x.reshape(3, -1, 1)).ravel(), got)
        for nu in (4.0, 53.5, 499.0):
            xs = np.array([x for n, x in self.GRID if n == nu])
            assert list(log_ive(nu, xs) + xs) == [log_bessel_i(nu, v) for v in xs]

    @pytest.mark.parametrize("nu,seam", [(1999.0, 2761.7), (2499.0, 4376.5)])
    def test_large_order_near_the_seam(self, nu, seam):
        # Just below the argument where ive(nu, x) underflows, the series sum
        # passes the float64 range (about e^798 at nu = 1999, e^1506 at 2499);
        # its running sum is rescaled by powers of two, so log I_nu and
        # A_d = I_{nu+1} / I_nu (d = 2 nu + 2) stay finite on both sides of the seam.
        x = seam * np.array([0.3, 0.9, 0.99, 0.999, 0.9999, 1.0001, 1.001, 1.01])
        assert ive(nu, x[4]) == 0.0 and ive(nu, x[5]) > 0.0
        got_log, got_ratio = log_ive(nu, x), mean_resultant_ratio(int(2 * nu + 2), x)
        assert list(got_ratio) == [log_bessel_i_ratio(nu, v) for v in x]
        with mp.workdps(40):
            for v, gl, gr in zip(x, got_log, got_ratio):
                # log_ive cancels terms of size nu log(x / 2) to its value.
                want = mp.log(mp.besseli(nu, v)) - v
                assert abs(gl - want) <= 2 * EPS * nu * math.log(v / 2.0)
                # The series ratio is within 6e-15, the ive ratio within the
                # range grid's 1e-12 (2.9e-13 here).
                tol = 1e-14 if ive(nu + 1.0, v) == 0.0 else 1e-12
                assert abs(gr - mp_ratio(nu, v)) <= tol * gr


class TestBesselCalls:
    def test_each_order_once(self, ive_calls):
        # log I_nu alone (log_ive, log_peak_density, the L2 kernel) never pays
        # for order nu + 1, in any branch (x = 0, the series, ive, past ive's
        # range, inf); A_d evaluates each order once, over all its elements.
        x = np.concatenate([[0.0], np.geomspace(1e-6, 1e12, 200), [np.inf]])
        for d in (2, 3, 768):
            nu = d / 2.0 - 1.0
            ive_calls.clear()
            log_ive(nu, x)
            log_peak_density(d, x)
            assert ive_calls == [(nu, x.size)] * 2
            ive_calls.clear()
            mean_resultant_ratio(d, x[1:-1])
            assert ive_calls == [(nu, 200), (nu + 1.0, 200)]
        ive_calls.clear()
        _l2_matrix(np.eye(3), np.array([2.0, 3.0, 4.0]))
        assert ive_calls and {nu for nu, _ in ive_calls} == {0.5}


class TestLogBesselI:
    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 4.0, 49.0, 53.5, 383.0])
    @pytest.mark.parametrize("x", [1e-6, 1e-3, 0.5, 2.0, 50.0, 700.0, 1e4, 1e6])
    def test_matches_mpmath(self, nu, x):
        got = log_bessel_i(nu, x)
        want = mp_log_iv(nu, x)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_branch_seam_agreement(self):
        # The power series must agree with log(ive)+x where both are usable,
        # scanning across the underflow boundary for a high order; below it,
        # log_bessel_i takes the series and matches mpmath.
        nu = 383.0
        for x in np.geomspace(30.0, 400.0, 60):
            y = float(ive(nu, x))
            if y <= 0.0:
                want = mp_log_iv(nu, x)
                assert abs(log_bessel_i(nu, x) - want) <= 1e-15 * abs(want)
                continue
            s, e = _series(nu, np.array([x]))
            assert e[0] == 0
            via_series = nu * (math.log(x) - math.log(2.0)) - gammaln(nu + 1.0) + math.log(s[0])
            assert via_series == pytest.approx(math.log(y) + x, rel=1e-12)

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
        # Where ive underflows (all of these kappas at d = 768), A_d takes the
        # ratio of two series over the array: each element is what a scalar
        # call gives, within 2 eps of mpmath and 4 eps of Perron's continued
        # fraction. At x = 3 the ive ratio serves, which scipy's ive leaves
        # 30 eps off at nu = 0.5 and 77 eps at nu = 49; 1e-13 as in test_matches_mpmath.
        kappas = np.geomspace(1e-6, 40.0, 50)
        got = mean_resultant_ratio(768, kappas)
        assert [log_bessel_i_ratio(383.0, float(k)) for k in kappas] == list(got)
        assert [mean_resultant_ratio(768, float(k)) for k in kappas] == list(got)
        for k, g in zip(kappas, got):
            assert abs(mp.mpf(g) - mp_ratio(383.0, k)) <= 2 * EPS * g
            assert abs(g - ratio_fraction_scalar(383.0, float(k))) <= 4 * EPS * g
        for nu in (0.0, 0.5, 49.0):
            assert log_bessel_i_ratio(nu, 3.0) == pytest.approx(float(mp_ratio(nu, 3.0)), rel=1e-13)

    @pytest.mark.parametrize("d", [3, 768])
    def test_tiny_kappa(self, d):
        # Down to the smallest subnormal, A_d(kappa) ~ kappa / d is within
        # 2 eps of mpmath, or one subnormal step where it is subnormal.
        for kappa in (1e-290, 1e-300, 1e-305, 1e-310, 5e-324):
            got = mean_resultant_ratio(d, kappa)
            want = mp_ratio(d / 2.0 - 1.0, kappa)
            tol = 2 * EPS * want if want >= np.finfo(float).tiny else mp.mpf(5e-324)
            assert abs(mp.mpf(got) - want) <= tol, (kappa, got, want)

    @pytest.mark.parametrize("nu", [0.0, 383.0])
    def test_ratio_past_the_fraction(self, nu):
        # Where Perron's fraction would need more than 20,000 terms (from
        # x ~ 1.7e7 at nu = 0), the ive ratio, and past 1.09e9 the expansion,
        # are within an ulp of mpmath, up to the largest floats without a warning.
        for x in (1.78e7, 1e8, 1e9, 1e12, 1.7e308):
            with mp.workdps(40):
                want = mp.besseli(nu + 1, x) / mp.besseli(nu, x)
            assert abs(mp.mpf(log_bessel_i_ratio(nu, x)) - want) <= np.finfo(float).eps * want

    def test_ratio_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            log_bessel_i_ratio(1.0, 0.0)
        with pytest.raises(ValueError):
            mean_resultant_ratio(1, 1.0)

    @pytest.mark.parametrize("nu,x", [(-3.0, 1e-300), (-1.0, 1e-310), (-0.5, 2.0)])
    def test_ratio_rejects_negative_order(self, nu, x):
        # The series branch assumes nu >= 0: it gave -2.5e-301 at (-3, 1e-300),
        # where I_{-2} / I_{-3} = I_2 / I_3 ~ 6e300, and divided by zero at
        # (-1, 1e-310). log_bessel_i refuses nu < 0 the same way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="nu must be finite and >= 0"):
                log_bessel_i_ratio(nu, x)

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
    def test_non_finite_order_refused(self, nu):
        # NaN and inf passed the nu < 0 guards, and each call returned NaN.
        for entry in (log_bessel_i, log_bessel_i_ratio):
            with pytest.raises(ValueError, match="nu must be finite and >= 0"):
                entry(nu, 1.0)


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

    @pytest.mark.slow
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


class TestOrdersZeroAndOne:
    """Orders 0 and 1 (all of d = 2, and the denominator of A_4) come from
    scipy's i0e and i1e, NaN where ive is NaN, against 40-digit mpmath for
    kappa from 1e-8 to 2^30."""

    KAPPAS = np.concatenate([np.geomspace(1e-8, 2.0 ** 30, 60), [_IVE_MAX]])

    @pytest.fixture(scope="class")
    def oracle(self):
        """log ive_0, log ive_1, A_2, A_4 and the relative error of scipy's
        ive(2, kappa) at every kappa."""
        out = []
        with mp.workdps(40):
            for k in self.KAPPAS:
                x = mp.mpf(float(k))
                i0, i1, i2 = (mp.besseli(nu, x) for nu in (0, 1, 2))
                ive2 = i2 * mp.exp(-x)
                out.append([mp.log(i0) - x, mp.log(i1) - x, i1 / i0, i2 / i1,
                            abs(mp.mpf(float(ive(2.0, k))) - ive2) / ive2])
        return np.array(out, dtype=float).T

    @pytest.mark.parametrize("nu", [0.0, 1.0])
    def test_log_ive(self, oracle, nu):
        # The range grid's log C_d bound.
        want = oracle[int(nu)]
        got = log_ive(nu, self.KAPPAS)
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), 1.0))

    @pytest.mark.parametrize("d", [2, 4])
    def test_mean_resultant_ratio(self, oracle, d):
        # A_2 = i1e / i0e is within 6e-16 of mpmath here (ive's ratio: 2.8e-15).
        # A_4 divides ive(2, kappa), which is up to 4.4e-15 off below kappa ~
        # 1e-4, by i1e: the bound is 2e-15 beyond that numerator's own error
        # (none at 2^30, past ive's range, where the expansion serves).
        want = oracle[d // 2 + 1]
        got = mean_resultant_ratio(d, self.KAPPAS)
        own = np.nan_to_num(oracle[4]) if d == 4 else 0.0
        assert np.all(np.abs(got - want) <= (2e-15 + own) * want)

    @pytest.mark.parametrize("nu", [0.0, 1.0])
    def test_nan_exactly_where_ive_is(self, nu):
        edge = np.array([_IVE_MAX, np.nextafter(_IVE_MAX, np.inf), 2.0 ** 30, 1e300, np.inf])
        x = np.concatenate([[0.0, 1e-300, 1.0, 1e9], edge, -edge, [np.nan]])
        got, want = _ive(nu, x), ive(nu, x)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.isnan(got).sum() == 9
        ok = ~np.isnan(want)
        assert np.array_equal(got[ok], (i0e if nu == 0.0 else i1e)(x[ok]))

    def test_zero_and_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_ive(0.0, np.array([0.0]))[0] == 0.0
            assert log_ive(1.0, np.array([0.0]))[0] == -np.inf
            for nu in (0.0, 1.0):
                assert np.isnan(log_ive(nu, np.array([np.inf]))[0])

    @pytest.mark.parametrize("d", [2, 4])
    def test_expansion_past_ives_range(self, d):
        # Past 2^30 - 1/2 the large-argument expansion serves, as it does for
        # ive at every other order: i1e / i0e is 2 ulp off at 1.2e9.
        kappas = np.array([np.nextafter(_IVE_MAX, np.inf), 2.0 ** 30, 1.2e9, 1e12])
        got, got_log = mean_resultant_ratio(d, kappas), log_ive(d / 2.0 - 1.0, kappas)
        with mp.workdps(40):
            for k, g, gl in zip(kappas, got, got_log):
                x = mp.mpf(float(k))
                i_nu, i_up = mp.besseli(d // 2 - 1, x), mp.besseli(d // 2, x)
                assert abs(mp.mpf(g) - i_up / i_nu) <= EPS * g
                want = mp.log(i_nu) - x
                assert abs(gl - want) <= 1e-14 * abs(want)
