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

mp.mp.dps = 50


def mp_log_iv(nu: float, x: float) -> float:
    return float(mp.log(mp.besseli(mp.mpf(nu), mp.mpf(x))))


def log_iv_series_scalar(nu: float, x: float) -> float:
    """Reference: the power series for one argument, as one 1-d logsumexp."""
    m = np.arange(_SERIES_TERMS)
    log_terms = (2 * m + nu) * (math.log(x) - math.log(2.0)) \
        - gammaln(m + 1.0) - gammaln(m + 1.0 + nu)
    return float(logsumexp(log_terms))


class TestSeriesOnArrays:
    # Arguments where ive underflows, so log_bessel_i takes the series.
    GRID = [(nu, float(x)) for nu in (0.5, 4.0, 53.5, 383.0, 499.0)
            for x in np.geomspace(1e-300, 300.0, 200) if ive(nu, x) == 0.0]

    def test_scalar_path_matches_reference_exactly(self):
        assert len(self.GRID) > 300
        # Where numpy's vectorised log rounds away from math.log (none on some CPUs).
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

    def test_ratio_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            log_bessel_i_ratio(1.0, 0.0)
        with pytest.raises(ValueError):
            mean_resultant_ratio(1, 1.0)


class TestRangeGrid:
    """A_d, kappa_mle and log C_d against mpmath over the whole supported
    range: d in {2, 3, 10, 100, 768}, kappa log-spaced over [1e-6, 1e8]."""

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
