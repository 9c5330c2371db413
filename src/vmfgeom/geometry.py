"""Sphere primitives, the Wasserstein-like (WL) distance and the exact L2
distance between vMF laws.

The WL distance is the geodesic distance of the product manifold
S^{d-1} x R+ carrying the arc-length metric on the sphere factor and the
pullback of s = 1/sqrt(kappa) on the concentration factor:

    WL(p, q)^2 = arccos^2(<mu_p, mu_q>) + (d-1) (1/sqrt(k_p) - 1/sqrt(k_q))^2

It vanishes iff the laws coincide, reduces to the arc length as both
concentrations grow, and blows up as either concentration vanishes.

The L2 distance between the densities has a closed form because the product
of two vMF densities is an unnormalised vMF density (Mardia & Jupp 2000):

    int f_p f_q = C(k_p) C(k_q) / C(|k_p mu_p + k_q mu_q|),  C_d(0) = 1/|S^{d-1}|

so L2^2 = int f_p^2 + int f_q^2 - 2 int f_p f_q. l2_distance_mc is kept as
an independent Monte-Carlo cross-check of that formula.

Each distance has one array kernel on stacks of laws, _wl_matrix and
_l2_matrix; wl_distance, l2_distance, pairwise_matrix and the reductions all
run them, so no distance is evaluated pair by pair in Python.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import VmfParams, _as_unit_vector, log_normalizing_constant, log_peak_density
from .rng import substream


# pairwise_matrix refuses more laws than this before it allocates. At the cap
# one n x n float64 buffer is 0.2 GB, and the WL and L2 kernels peak at about
# 4 and 7.5 such buffers (0.8 and 1.5 GB), while mixtures of a few thousand
# components still reduce. There is deliberately no option to raise it.
MAX_PAIRWISE_LAWS = 5_000

# _l2_matrix's rounding bound per unit of (d + k_p + k_q)(int f_p^2 + int
# f_q^2): 32 eps, the multiple that tests/test_bessel.py's range grid asserts.
_L2_ROUNDING = 32.0 * np.finfo(np.float64).eps
_LOG_MAX = math.log(np.finfo(np.float64).max)
_MC_CHUNK = 1 << 20  # floats per draw of l2_distance_mc's sphere points (8 MB)


class AntipodalMeansError(ValueError):
    """Raised where a logarithmic map (and hence a geodesic) is not unique."""


@dataclass(frozen=True)
class TangentVector:
    """A vector in the tangent space of the sphere at a base point.

    The vector is re-projected onto the tangent hyperplane on construction,
    so <base, vec> = 0 holds within 1e-9 afterwards.
    """

    base: np.ndarray
    vec: np.ndarray

    def __post_init__(self):
        base = _as_unit_vector(self.base, "base")
        vec = np.asarray(self.vec, dtype=np.float64)
        if vec.shape != base.shape:
            raise ValueError("vec must match the dimension of base")
        if not np.all(np.isfinite(vec)):
            raise ValueError("vec must be finite")
        vec = vec - (base @ vec) * base
        vec.flags.writeable = False
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "vec", vec)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative dissimilarity matrix with an exactly zero diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must be a square matrix")
        if not np.all(np.isfinite(m)) or np.any(m < 0.0):
            raise ValueError("entries must be finite and nonnegative")
        if np.any(np.diag(m) != 0.0):
            raise ValueError("diagonal must be exactly zero")
        if not np.array_equal(m, m.T):
            raise ValueError("matrix must be exactly symmetric")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _check_same_dim(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")


def geodesic_distance(x, y) -> float:
    """Great-circle distance between unit vectors in [0, pi], as
    2 atan2(|x - y|, |x + y|): within about eps of the angle everywhere,
    where arccos(<x, y>) loses up to 1.5e-8 near 0 and pi."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_same_dim(x, y)
    return 2.0 * math.atan2(float(np.linalg.norm(x - y)), float(np.linalg.norm(x + y)))


def _wl_matrix(mus_a, kappas_a, mus_b, kappas_b) -> np.ndarray:
    """m x n WL distances from (m, d) and (n, d) directions and (m,) and (n,)
    concentrations. The cosines are one BLAS product, which may round a pair
    differently in other shapes: a few ulp off the scalar acos(<mu_p, mu_q>).
    hypot does not square its arguments, so 1/sqrt(kappa) near 1e161 (kappa
    down to 5e-324) gives a finite distance."""
    ang = np.arccos(np.clip(mus_a @ mus_b.T, -1.0, 1.0))
    ds = 1.0 / np.sqrt(kappas_a)[:, None] - 1.0 / np.sqrt(kappas_b)[None, :]
    return np.hypot(ang, math.sqrt(mus_a.shape[1] - 1) * ds)


def wl_distance(p: VmfParams, q: VmfParams) -> float:
    """Wasserstein-like distance between two vMF laws of equal dimension."""
    if p.d != q.d:
        raise ValueError(f"dimension mismatch: {p.d} vs {q.d}")
    return float(_wl_matrix(p.mu[None], np.array([p.kappa]), q.mu[None], np.array([q.kappa]))[0, 0])


def exp_map(t: TangentVector) -> np.ndarray:
    """Follow the geodesic from the base point along the tangent vector.

    Returns cos(|v|) x + sin(|v|)/|v| v; for |v| below 1e-12 the series
    limit is the base point itself.
    """
    return _exp(t.base, t.vec)


def _exp(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    nv = float(np.linalg.norm(v))
    if nv < 1e-12:
        return x.copy()
    out = math.cos(nv) * x + (math.sin(nv) / nv) * v
    return out / np.linalg.norm(out)


def log_map(x, y) -> TangentVector:
    """Inverse of exp_map: tangent vector at x pointing to y with length
    the angle between them. Undefined (raises) for antipodal inputs."""
    x = _as_unit_vector(x, "x")
    y = _as_unit_vector(y, "y")
    _check_same_dim(x, y)
    return TangentVector(base=x, vec=_log(x, y))


def _log(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    cos = min(1.0, max(-1.0, float(x @ y)))
    if cos <= -1.0 + 1e-12:
        raise AntipodalMeansError("log map is not unique for antipodal points")
    proj = y - cos * x
    norm = float(np.linalg.norm(proj))
    if norm == 0.0:
        return np.zeros_like(x)
    return (geodesic_distance(x, y) / norm) * proj


def wl_interpolate(p: VmfParams, q: VmfParams, t: float) -> VmfParams:
    """Point at parameter t on the constant-speed WL geodesic from p to q.

    The mean direction follows the great circle; the concentration is linear
    in the s = 1/sqrt(kappa) coordinate, where the concentration factor of
    the product metric is flat.
    """
    if p.d != q.d:
        raise ValueError(f"dimension mismatch: {p.d} vs {q.d}")
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if t == 0.0:
        return p
    if t == 1.0:
        return q
    mu_t = _exp(p.mu, t * _log(p.mu, q.mu))
    s = (1.0 - t) / math.sqrt(p.kappa) + t / math.sqrt(q.kappa)
    return VmfParams(mu=mu_t, kappa=s ** -2)


def _uniform_sphere(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    pts = rng.standard_normal((n, d))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def l2_distance_mc(p: VmfParams, q: VmfParams, seed: int, rel_tol: float = 1e-3,
                   max_draws: int = 2 ** 23) -> float:
    """Monte-Carlo estimate of the L2 distance between the two densities,
    (integral of (f_p - f_q)^2 over the sphere)^(1/2).

    Uniform sphere draws start at 2^10 and double, reusing every previous
    draw, until the running estimate's relative change drops below rel_tol
    (or max_draws is reached). Symmetric in (p, q) by construction: the
    integrand is symmetric and both orders consume identical draws. A batch
    is drawn _MC_CHUNK floats at a time, so memory is bounded at any d.
    """
    if p.d != q.d:
        raise ValueError(f"dimension mismatch: {p.d} vs {q.d}")
    rng = substream(seed, "l2-mc")
    d = p.d
    log_area = math.log(2.0) + (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0)
    log_cp = log_normalizing_constant(d, p.kappa)
    log_cq = log_normalizing_constant(d, q.kappa)

    total = 0.0
    n_total = 0
    batch = 2 ** 10
    prev = None
    rows = max(1, _MC_CHUNK // d)
    while True:
        for start in range(0, batch, rows):
            x = _uniform_sphere(rng, min(rows, batch - start), d)
            fp = np.exp(log_cp + p.kappa * (x @ p.mu))
            fq = np.exp(log_cq + q.kappa * (x @ q.mu))
            sq = (fp - fq) ** 2
            if not np.all(np.isfinite(sq)):
                raise ValueError("density overflow: parameters outside float64 range")
            total += float(sq.sum())
        n_total += batch
        est = math.sqrt(math.exp(log_area) * total / n_total)
        if prev is not None:
            if abs(est - prev) <= rel_tol * max(abs(est), abs(prev)):
                return est
            if n_total >= max_draws:
                return est
        prev = est
        batch = n_total  # doubling schedule


def _l2_matrix(mus: np.ndarray, kappas: np.ndarray) -> np.ndarray:
    """Exact L2 distances between the n laws given by (n, d) mean directions
    and (n,) concentrations: an exactly symmetric n x n array with a zero
    diagonal.

    Every term stays in the log domain, with the exp(kappa) factors
    cancelled analytically, and L2^2 is clamped at 0. The absolute error of
    L2^2 is then a small multiple of eps (d + k_p + k_q) (int f_p^2 +
    int f_q^2): nearly equal laws lose relative accuracy to cancellation,
    and identical laws give exactly 0. Raises ValueError where a distance
    is not a finite float64, or where distinct laws have L2^2 within that
    error bound of 0 while the larger of their L2 norms (int f^2)^(1/2) is
    past float64 (so at d = 768 for any two distinct laws).
    """
    n, d = mus.shape
    # Gram matrix summed one coordinate at a time, so each entry rounds the
    # same way whatever n is (a BLAS product does not promise that): a pair
    # alone gets the same value as inside a matrix. Dividing by
    # sqrt(g_ii g_jj) makes the cosine of identical directions exactly 1.
    gram = np.zeros((n, n))
    for col in mus.T:
        gram += np.multiply.outer(col, col)
    i, j = np.triu_indices(n, 1)
    norm2 = np.diag(gram)
    cos = np.clip(gram[i, j] / np.sqrt(norm2[i] * norm2[j]), -1.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # The resultant |k_i mu_i + k_j mu_j| = big * root, and
        # shift = resultant - k_i - k_j, both free of overflow and cancellation.
        big = np.maximum(kappas[i], kappas[j])
        t = np.minimum(kappas[i], kappas[j]) / big
        root = np.sqrt((1.0 - t) ** 2 + 2.0 * t * (1.0 + cos))
        shift = -2.0 * big * t * (1.0 - cos) / (root + 1.0 + t)
        # With peak = log C + kappa, log int f_i f_j = peak_i + peak_j
        # - peak(resultant) + shift, and log int f_i^2 is its i = j case.
        peak = log_peak_density(d, kappas)
        own = 2.0 * peak - log_peak_density(d, 2.0 * kappas)
        cross = peak[i] + peak[j] - log_peak_density(d, big * root) + shift
        top = np.maximum(own[i], own[j])
        norms = np.exp(own[i] - top) + np.exp(own[j] - top)
        bracket = norms - 2.0 * np.exp(cross - top)
        dist = np.exp(0.5 * (top + np.log(np.maximum(bracket, 0.0))))
        # A bracket within its rounding bound of 0 only says that L2 is below
        # about sqrt(bound) exp(top / 2). Where exp(top / 2), the larger L2
        # norm, overflows, that bounds nothing useful in float64, so distinct
        # laws raise instead of getting 0.
        lost = ((bracket <= _L2_ROUNDING * (d + kappas[i] + kappas[j]) * norms)
                & (top > 2.0 * _LOG_MAX) & ((cos < 1.0) | (kappas[i] != kappas[j])))
    if lost.any() or not np.all(np.isfinite(dist)):
        raise ValueError(f"the L2 distance cannot be evaluated in float64 for these laws (d = {d})")
    out = np.zeros((n, n))
    out[i, j] = dist
    out[j, i] = dist
    return out


def l2_distance(p: VmfParams, q: VmfParams) -> float:
    """Exact L2 distance (integral of (f_p - f_q)^2 over the sphere)^(1/2).

    Runs the pairwise kernel on the two laws, so it equals the matching
    entry of pairwise_matrix(..., metric="l2") bit for bit.
    """
    if p.d != q.d:
        raise ValueError(f"dimension mismatch: {p.d} vs {q.d}")
    return float(_l2_matrix(np.stack([p.mu, q.mu]), np.array([p.kappa, q.kappa]))[0, 1])


def pairwise_matrix(items, metric: str = "wl") -> DistanceMatrix:
    """Pairwise distances between vMF laws under 'wl' or 'l2' (exact).

    Each metric's kernel runs once on the stacked laws; the upper triangle
    is mirrored, so the result is exactly symmetric with a zero diagonal.
    More than MAX_PAIRWISE_LAWS laws raise ValueError before any n x n
    array is allocated.
    """
    items = list(items)
    if not items:
        raise ValueError("need at least one distribution")
    d = items[0].d
    if any(p.d != d for p in items):
        raise ValueError("all distributions must share the same dimension")
    if len(items) > MAX_PAIRWISE_LAWS:
        raise ValueError(f"{len(items)} laws exceed the pairwise limit of {MAX_PAIRWISE_LAWS}")
    mus = np.stack([p.mu for p in items])
    kappas = np.array([p.kappa for p in items])
    if metric == "wl":
        out = np.triu(_wl_matrix(mus, kappas, mus, kappas), 1)
        out = out + out.T
    elif metric == "l2":
        out = _l2_matrix(mus, kappas)
    else:
        raise ValueError(f"unknown metric {metric!r} (expected 'wl' or 'l2')")
    return DistanceMatrix(entries=out)
