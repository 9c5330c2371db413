"""Log-domain evaluation of modified Bessel functions of the first kind.

Everything here exists so that vMF normalizing constants and mean resultant
lengths stay finite at high dimension (order nu up to ~400) and extreme
concentration, where a naive I_nu overflows or underflows float64.
"""

import math
import numbers

import numpy as np


def _special():
    """scipy.special, vmfgeom's only scipy module, imported at the first Bessel
    evaluation: it takes about 0.2 s, and no WL distance, geodesic or barycenter needs it."""
    import scipy.special
    return scipy.special


def _check_dimension(d) -> None:
    """Refuse a dimension d that is not an integer >= 2 (Python's or numpy's)."""
    if not isinstance(d, numbers.Integral) or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")


def logsumexp(a, axis=None):
    """scipy's logsumexp(a, axis), for fit_eval."""
    return _special().logsumexp(a, axis=axis)


_LOG_2PI = math.log(2.0 * math.pi)
_TINY = np.finfo(np.float64).tiny
_SCALE = 900  # a series sum past 2^900 is scaled by 2^-900, far from overflow
_IVE_MAX = 2.0 ** 30 - 0.5  # scipy's ive is NaN past |x| = 2^30 - 1/2 (scipy 1.17.1)


def _ive(nu: float, x):
    """scipy's ive(nu, x) elementwise over an array x. Orders 0 and 1 take
    its i0e and i1e instead, about four times faster and no less accurate,
    set to NaN exactly where ive is NaN (|x| > _IVE_MAX, and +-inf), so every
    branch of _log_ive_and_ratio keeps its domain."""
    special = _special()
    if nu == 0.0 or nu == 1.0:
        return np.where(np.abs(x) <= _IVE_MAX, (special.i1e if nu else special.i0e)(x), np.nan)
    return special.ive(nu, x)


def _series(nu: float, x):
    """0F1(; nu + 1; x^2/4) = Gamma(nu + 1) (2/x)^nu I_nu(x) (DLMF 10.25.2)
    elementwise over an array x >= 0, as (s, e) for the value s 2^(900 e):
    positive terms, which peak near m(m + nu) = x^2/4 and are few where ive
    underflows (small x, large nu), summed until each is at most 1e-17 of its
    sum (below a quarter ulp: later terms cannot change a sum, and no element
    depends on the rest of its array). e counts the times a sum passed 2^900
    (from nu ~ 1999 near ive's underflow seam); a sum below it has e = 0."""
    q = np.square(x) / 4.0
    term, total, e, m = np.ones_like(q), np.ones_like(q), np.zeros(q.shape, dtype=np.int64), 0
    while np.any(term > 1e-17 * total):
        m += 1
        term = term * (q / (m * (m + nu)))
        total = total + term
        if (big := total > 2.0 ** _SCALE).any():
            term[big], total[big] = term[big] / 2.0 ** _SCALE, total[big] / 2.0 ** _SCALE
            e[big] += 1
    return total, e


def _log_ive_and_ratio(nu: float, x, ratio: bool):
    """(log ive_nu(x), I_{nu+1}(x) / I_nu(x)) elementwise over an array x; the
    ratio only if asked for (else None, with no _ive call at order nu + 1).

    The log is that of _ive (scipy's ive) where that is a normal float; where it
    underflows (small x, large nu), log((x/2)^nu / Gamma(nu + 1) * _series(nu, x));
    where ive fails (NaN past _IVE_MAX ~ 1.07e9), the large-argument expansion
    (DLMF 10.40.1) (2 pi x)^(-1/2) (1 - (mu-1)/(8x) + (mu-1)(mu-9)/(2 (8x)^2))
    with mu = 4 nu^2, whose next term is below 1e-12 relative for x >> nu^2.
    x = 0 gives log I_nu(0) exactly, and x = inf gives NaN.
    The ratio needs finite x > 0 (else ValueError). It is that of the ive
    values where the numerator is a normal float; where it underflows (before
    the denominator), x / (2 (nu + 1)) times the ratio of the two series; and
    past ive's range 1 - (2nu+1)/(2x) + (2nu+1)(2nu-1)/(8x^2), whose next term
    is below 1e-16 there for nu up to about 500.
    """
    x = np.asarray(x, dtype=np.float64)
    if ratio and not (ok := (x > 0.0) & (x < np.inf)).all():
        raise ValueError(f"bessel ratio requires finite x > 0, got {x[~ok][0]}")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        den = _ive(nu, x)
        out, num, r = np.log(den), None, None
        if (big := np.isnan(den) & (x < np.inf)).any():  # (8x)^2 may overflow, leaving c2 = 0
            xb, mu = x[big], 4.0 * nu * nu
            c1 = -(mu - 1.0) / (8.0 * xb)
            c2 = (mu - 1.0) * (mu - 9.0) / (2.0 * (8.0 * xb) ** 2)
            out[big] = np.log1p(c1 + c2) - 0.5 * (_LOG_2PI + np.log(xb))
        if ratio:
            num = _ive(nu + 1.0, x)
            r = num / den
            if (big := np.isnan(num)).any():  # 8x may overflow, leaving the last term 0
                xb, c1, c2 = x[big], 2.0 * nu + 1.0, (2.0 * nu + 1.0) * (2.0 * nu - 1.0)
                r[big] = 1.0 - c1 / (2.0 * xb) + c2 / (8.0 * xb) / xb
    # One series at order nu serves the log's underflow and the ratio's.
    under = (den < _TINY) & (x > 0.0)
    if (series := under if num is None else under | (num < _TINY)).any():
        xs, (s, e) = x[series], _series(nu, x[series])
        log_i = nu * (np.log(xs) - math.log(2.0)) - _special().gammaln(nu + 1.0) \
            + (np.log(s) + e * (_SCALE * math.log(2.0))) - xs
        out[series] = np.where(under[series], log_i, out[series])
        if num is not None:
            s1, e1 = _series(nu + 1.0, xs)
            r[series] = np.where(num[series] < _TINY, xs / (2.0 * (nu + 1.0))
                                 * np.ldexp(s1 / s, _SCALE * (e1 - e)), r[series])
    return out, r


def log_ive(nu: float, x) -> np.ndarray:
    """log I_nu(x) - x, the log of the exponentially scaled Bessel function,
    elementwise over an array x >= 0; finite for every finite x."""
    return _log_ive_and_ratio(nu, x, False)[0]


def log_bessel_i(nu: float, x: float) -> float:
    """log I_nu(x) for one finite nu >= 0 and one finite x > 0: log_ive(nu, x) + x."""
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError(f"log_bessel_i requires finite x > 0, got {x}")
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"log_bessel_i: nu must be finite and >= 0, got {nu}")
    return float(log_ive(nu, np.array([x]))[0]) + x


def log_bessel_i_ratio(nu: float, x: float) -> float:
    """I_{nu+1}(x) / I_nu(x) for one finite nu >= 0 and one finite x > 0."""
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"bessel ratio: nu must be finite and >= 0, got {nu}")
    return float(_log_ive_and_ratio(nu, np.reshape(x, -1), True)[1][0])


def mean_resultant_ratio(d: int, kappa):
    """A_d(kappa) = I_{d/2}(kappa) / I_{d/2-1}(kappa), the mean resultant
    length of a vMF law with concentration kappa in dimension d, elementwise
    over an array of concentrations (a float gives a float)."""
    _check_dimension(d)
    out = _log_ive_and_ratio(d / 2.0 - 1.0, np.reshape(kappa, -1), True)[1].reshape(np.shape(kappa))
    return out if out.ndim else float(out)
