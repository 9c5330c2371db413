"""Log-domain evaluation of modified Bessel functions of the first kind.

Everything here exists so that vMF normalizing constants and mean resultant
lengths stay finite at high dimension (order nu up to ~400) and extreme
concentration, where a naive I_nu overflows or underflows float64.
"""

import math

import numpy as np


def _deferred(name: str):
    """A stand-in for scipy.special's function `name` that imports
    scipy.special (about 0.2 s, and no WL distance, geodesic or barycenter
    needs it) at its first call. That call binds scipy's function in place
    of the stand-in in this module, so calls from here cost nothing extra
    afterwards; a module that imported the stand-in keeps calling through it."""
    func = None

    def load(*args, **kwargs):
        nonlocal func
        if func is None:
            import scipy.special
            func = getattr(scipy.special, name)
            if globals()[name] is load:
                globals()[name] = func
        return func(*args, **kwargs)

    return load


# The only scipy import in vmfgeom; core and fit_eval take these from here.
gammaln, ive, logsumexp = map(_deferred, ("gammaln", "ive", "logsumexp"))

_LOG_2PI = math.log(2.0 * math.pi)
_TINY = np.finfo(np.float64).tiny

# Number of terms in the small-argument power series branch. Chosen so the
# series and log(ive)+x agree to ~1e-13 relative across the underflow seam
# for orders up to nu = 400 (see the seam test).
_SERIES_TERMS = 200
_SERIES_BLOCK = 4096  # arguments per table of terms: 200 x 4096 float64 is 6.5 MB


def _log_iv_series(nu: float, x):
    """Power series for log I_nu(x), evaluated entirely in the log domain,
    elementwise over an array x > 0, a block of arguments at a time.

    Accurate where the series converges quickly (x^2/4 small relative to nu),
    which is exactly the regime where scipy's ive underflows to zero.
    """
    m = np.arange(_SERIES_TERMS)
    log_x = np.reshape(np.log(x), (-1, 1))
    blocks = np.split(log_x, range(_SERIES_BLOCK, len(log_x), _SERIES_BLOCK))
    out = np.concatenate([logsumexp((2 * m + nu) * (b - math.log(2.0)) - gammaln(m + 1.0)
                                    - gammaln(m + 1.0 + nu), axis=1) for b in blocks])
    return out.reshape(np.shape(x))


def log_ive(nu: float, x) -> np.ndarray:
    """log I_nu(x) - x, the log of the exponentially scaled Bessel function,
    elementwise over an array x >= 0; finite across the float64 range.

    The log of scipy's ive where ive is a normal float; the log-domain power
    series where ive underflows (small x, large nu); and where ive fails
    (NaN above x ~ 1.09e9), the large-argument expansion (DLMF 10.40.1)
    (2 pi x)^(-1/2) (1 - (mu-1)/(8x) + (mu-1)(mu-9)/(2 (8x)^2)) with
    mu = 4 nu^2, whose next term is below 1e-12 relative for x >> nu^2.
    x = 0 gives log I_nu(0) exactly, and x = inf gives NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        y = ive(nu, x)
        out = np.log(y)
        big = np.isnan(y) & (x < np.inf)
        if big.any():  # (8x)^2 may overflow to inf, leaving c2 = 0
            xb, mu = x[big], 4.0 * nu * nu
            c1 = -(mu - 1.0) / (8.0 * xb)
            c2 = (mu - 1.0) * (mu - 9.0) / (2.0 * (8.0 * xb) ** 2)
            out[big] = np.log1p(c1 + c2) - 0.5 * (_LOG_2PI + np.log(xb))
    under = (y < _TINY) & (x > 0.0)
    if under.any():
        out[under] = _log_iv_series(nu, x[under]) - x[under]
    return out


def log_bessel_i(nu: float, x: float) -> float:
    """log I_nu(x) for nu >= 0 and one finite x > 0: log_ive(nu, x) + x."""
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError(f"log_bessel_i requires finite x > 0, got {x}")
    if nu < 0.0:
        raise ValueError(f"log_bessel_i requires nu >= 0, got {nu}")
    return float(log_ive(nu, np.array([x]))[0]) + x


def _ratio_ive(nu: float, x: np.ndarray):
    """(I_{nu+1}(x) / I_nu(x), ive(nu + 1, x)) elementwise: the ratio of
    scipy's ive values, and above x ~ 1.09e9, where ive stops, the
    large-argument expansion 1 - (2nu+1)/(2x) + (2nu+1)(2nu-1)/(8x^2), whose
    next term is below 1e-16 there for nu up to about 500."""
    num = ive(nu + 1.0, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / ive(nu, x)
        big = ~np.isfinite(out)
        xb, c1, c2 = x[big], 2.0 * nu + 1.0, (2.0 * nu + 1.0) * (2.0 * nu - 1.0)
        out[big] = 1.0 - c1 / (2.0 * xb) + c2 / (8.0 * xb) / xb
    return out, num


def _ratio_fraction(nu: float, x: np.ndarray) -> np.ndarray:
    """I_{nu+1}(x) / I_nu(x) by Perron's continued fraction (modified Lentz),
    elementwise over a 1-d array of finite x > 0, each element iterating until
    its own step is within 1e-15 of 1. Independent of log_ive, so A_d does
    not inherit its branch structure. An element still short after 20,000
    terms (x above about 1.7e7 at nu = 0) takes _ratio_ive's value."""
    bad = ~((x > 0.0) & (x < np.inf))
    if bad.any():
        raise ValueError(f"bessel ratio requires finite x > 0, got {x[bad][0]}")
    # R_nu = 1 / (b_1 + 1/(b_2 + ...)) with b_k = 2(nu + k)/x.
    tiny = 1e-300
    out, live = np.full(x.size, np.nan), np.arange(x.size)
    f, c, d = np.full(x.size, tiny), np.full(x.size, tiny), np.zeros(x.size)
    with np.errstate(over="ignore"):
        for k in range(1, 20000):
            b = 2.0 * (nu + k) / x[live]
            d = b + d
            d[d == 0.0] = tiny
            c = b + 1.0 / c
            c[c == 0.0] = tiny
            d = 1.0 / d
            delta = c * d
            f *= delta
            done = np.abs(delta - 1.0) < 1e-15
            out[live[done]] = f[done]
            more = ~done & (f < np.inf)
            live, f, c, d = live[more], f[more], c[more], d[more]
            if live.size == 0:
                break
    short = np.isnan(out)
    if short.any():
        out[short] = _ratio_ive(nu, x[short])[0]
    return out


def log_bessel_i_ratio(nu: float, x: float) -> float:
    """I_{nu+1}(x) / I_nu(x) for one finite x > 0, as _ratio_fraction gives it."""
    return float(_ratio_fraction(nu, np.array([float(x)]))[0])


def mean_resultant_ratio(d: int, kappa):
    """A_d(kappa) = I_{d/2}(kappa) / I_{d/2-1}(kappa), the mean resultant
    length of a vMF law with concentration kappa in dimension d, elementwise
    over an array of concentrations (a float gives a float): _ratio_ive's
    value, with Perron's continued fraction where the numerator underflows
    (small kappa at high d)."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    x = np.asarray(kappa, dtype=np.float64)
    flat = x.reshape(-1)
    nu = d / 2.0 - 1.0
    out, num = _ratio_ive(nu, flat)
    # I_{nu+1} < I_nu, so the numerator underflows first. The continued
    # fraction also rejects a kappa that is not finite and > 0.
    frac = (num < _TINY) | ~((flat > 0.0) & (flat < np.inf))
    if frac.any():
        out[frac] = _ratio_fraction(nu, flat[frac])
    return out.reshape(x.shape) if x.ndim else float(out[0])
