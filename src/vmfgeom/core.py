"""vMF parameter and mixture types, log-densities, and exact sampling.

A vMF law on the unit sphere S^{d-1} has density C_d(kappa) exp(kappa <mu, x>)
with unit mean direction mu and concentration kappa in (0, inf). Degenerate
laws (kappa = 0 uniform, kappa = inf point mass) are unrepresentable here.
"""

import math
import numbers
from dataclasses import InitVar, dataclass, field

import numpy as np

from .bessel import _LOG_2PI, log_ive
from .rng import substream

# Construction tolerates serialization round-off but rejects genuinely bad
# input: vectors off unit norm (or weight sums off 1) by more than this
# are errors rather than silently renormalized.
_NORM_SLACK = 1e-6


def _as_unit_vector(mu, what: str = "mu") -> np.ndarray:
    vec = np.asarray(mu, dtype=np.float64)
    if vec.ndim != 1 or vec.size < 2:
        raise ValueError(f"{what} must be a 1-d vector of length >= 2")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{what} must be finite")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError(f"{what} must be nonzero")
    if abs(norm - 1.0) > _NORM_SLACK:
        raise ValueError(f"{what} has norm {norm:.6g}, too far from 1 to renormalize")
    if abs(norm - 1.0) > 1e-12:  # idempotent: already-normalized input is untouched
        vec = vec / norm
    else:
        vec = vec.copy()
    vec.flags.writeable = False
    return vec


@dataclass(frozen=True)
class VmfParams:
    """A single vMF law: unit mean direction and positive concentration."""

    mu: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "mu", _as_unit_vector(self.mu))
        kappa = float(self.kappa)
        if not math.isfinite(kappa) or kappa <= 0.0:
            raise ValueError(f"kappa must be finite and > 0, got {kappa}")
        object.__setattr__(self, "kappa", kappa)

    @property
    def d(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class VmfMixture:
    """Weighted finite collection of vMF laws sharing one ambient dimension."""

    components: tuple
    weights: np.ndarray

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        if any(not isinstance(c, VmfParams) for c in comps):
            raise ValueError("components must be VmfParams")
        d = comps[0].d
        if any(c.d != d for c in comps):
            raise ValueError("all components must share the same dimension")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(comps),):
            raise ValueError("weights must match the number of components")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        total = float(w.sum())
        if abs(total - 1.0) > _NORM_SLACK:
            raise ValueError(f"weights sum to {total:.6g}, too far from 1 to renormalize")
        w = w / total
        w.flags.writeable = False
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", w)

    @property
    def d(self) -> int:
        return self.components[0].d

    @property
    def k(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class SampleSet:
    """n unit-norm observations in R^d with optional integer labels.

    points are a read-only copy of the array given, except with _owned,
    which a reader sets for a fresh array that nothing else holds: that
    array itself is taken over and made read-only.
    """

    points: np.ndarray
    labels: np.ndarray | None = field(default=None)
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] < 2:
            raise ValueError("points must be an n x d matrix with d >= 2")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        norms = np.sqrt(np.einsum("ij,ij->i", pts, pts))  # no n x d temporary
        if np.any(norms == 0.0) or np.any(np.abs(norms - 1.0) > _NORM_SLACK):
            raise ValueError("every row must have unit norm (within 1e-6)")
        if not _owned:
            pts = pts.copy()
        off = np.abs(norms - 1.0) > 1e-12  # idempotent renormalization
        pts[off] /= norms[off, None]
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64)
            if lab.shape != (pts.shape[0],):
                raise ValueError("labels must be a vector of length n")
            lab.flags.writeable = False
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def log_normalizing_constant(d: int, kappa: float) -> float:
    """log C_d(kappa) = (d/2-1) log kappa - (d/2) log 2pi - log I_{d/2-1}(kappa)
    for one finite kappa > 0, as log_peak_density(d, kappa) - kappa: finite
    for every such kappa, and bit for bit the array path's value."""
    if not isinstance(d, numbers.Integral) or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    kappa = float(kappa)
    if not math.isfinite(kappa) or kappa <= 0.0:
        raise ValueError(f"kappa must be finite and > 0, got {kappa}")
    return float(log_peak_density(d, np.array([kappa]))[0]) - kappa


def log_peak_density(d: int, kappa) -> np.ndarray:
    """log C_d(kappa) + kappa, the log-density at the mean direction,
    elementwise over an array of concentrations >= 0.

    Kept apart from the exp(kappa) factor, this keeps its relative accuracy
    at large kappa, where log C_d(kappa) alone carries an absolute rounding
    error of about eps * kappa. The Bessel factor is bessel.log_ive, finite
    for every finite kappa. kappa = 0 gives log C_d(0) = -log |S^{d-1}|, the
    uniform density, and a non-finite kappa gives NaN.
    """
    kappa = np.asarray(kappa, dtype=np.float64)
    return _log_peak(d, kappa, log_ive(d / 2.0 - 1.0, kappa))


def _log_peak(d: int, kappa: np.ndarray, log_i: np.ndarray) -> np.ndarray:
    """log_peak_density(d, kappa) given log_i = log_ive(d/2 - 1, kappa)."""
    if not isinstance(d, numbers.Integral) or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (d / 2.0 - 1.0) * np.log(kappa) - (d / 2.0) * _LOG_2PI - log_i
    out[kappa == 0.0] = math.lgamma(d / 2.0) - math.log(2.0) - (d / 2.0) * math.log(math.pi)
    return out


def log_density(p: VmfParams, x) -> float:
    """Log-density of the vMF law p at a unit vector x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (p.d,):
        raise ValueError(f"x has dimension {x.shape}, expected ({p.d},)")
    norm = float(np.linalg.norm(x))
    if abs(norm - 1.0) > _NORM_SLACK:
        raise ValueError(f"x has norm {norm:.6g}, not a unit vector")
    return log_normalizing_constant(p.d, p.kappa) + p.kappa * float(p.mu @ x)


def _sample_cosines(rng: np.random.Generator, kappa: float, d: int, n: int) -> np.ndarray:
    """Rejection-sample n cosine components w = <mu, x> of vMF(mu, kappa).

    Beta-based envelope (Ulrich 1984 / Wood 1994): exact, O(1) expected
    rejections per draw, valid for every d >= 2.
    """
    dim = d - 1.0
    # Envelope constant -2k + sqrt(4k^2 + dim^2), written cancellation-free
    # so extreme concentrations do not collapse b to zero.
    b = dim / (2.0 * kappa + math.sqrt(4.0 * kappa * kappa + dim * dim))
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + dim * math.log1p(-x0 * x0)

    out = np.empty(n)
    filled = 0
    while filled < n:
        m = max(n - filled, 16)
        z = rng.beta(dim / 2.0, dim / 2.0, size=m)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.uniform(size=m)
        accept = kappa * w + dim * np.log1p(-x0 * w) - c >= np.log(u)
        good = w[accept]
        take = min(good.size, n - filled)
        out[filled:filled + take] = good[:take]
        filled += take
    return out


def _rotate_from_pole(points: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Householder reflection carrying the north pole e_d onto mu."""
    d = mu.shape[0]
    pole = np.zeros(d)
    pole[-1] = 1.0
    u = pole - mu
    norm = np.linalg.norm(u)
    if norm < 1e-12:
        return points
    u /= norm
    return points - 2.0 * np.outer(points @ u, u)


# sample and sample_mixture refuse more than this many coordinates (n * d)
# before they allocate. At the cap the draw peaks at about 1 GB (four n x d
# float64 buffers) and the sample CSV is about 0.8 GB.
MAX_SAMPLE_ENTRIES = 30_000_000


def _check_sample_size(n: int, d: int) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    if n * d > MAX_SAMPLE_ENTRIES:
        raise ValueError(f"n * d = {n * d} exceeds the sampling limit of {MAX_SAMPLE_ENTRIES}")


def sample(p: VmfParams, n: int, seed: int) -> SampleSet:
    """Draw n i.i.d. observations from the vMF law p, deterministic in seed."""
    _check_sample_size(n, p.d)
    rng = substream(seed, "vmf-sample")
    return SampleSet(points=_draw(rng, p, n))


def _draw(rng: np.random.Generator, p: VmfParams, n: int) -> np.ndarray:
    d = p.d
    w = _sample_cosines(rng, p.kappa, d, n)
    # Tangent direction uniform on the sphere orthogonal to the pole.
    v = rng.standard_normal((n, d - 1))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    pts = np.empty((n, d))
    pts[:, :-1] = np.sqrt(np.maximum(0.0, 1.0 - w * w))[:, None] * v
    pts[:, -1] = w
    pts = _rotate_from_pole(pts, p.mu)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def sample_mixture(m: VmfMixture, n: int, seed: int) -> SampleSet:
    """Draw n observations from the mixture; labels record component indices.

    A one-component mixture reuses the plain sampler's stream, so its points
    are bit-identical to sample() with the same seed.
    """
    _check_sample_size(n, m.d)
    if m.k == 1:
        pts = sample(m.components[0], n, seed).points
        return SampleSet(points=pts, labels=np.zeros(n, dtype=np.int64))
    rng = substream(seed, "vmf-sample-mixture")
    assignment = rng.choice(m.k, size=n, p=m.weights)
    points = np.empty((n, m.d))
    for k in range(m.k):
        idx = np.nonzero(assignment == k)[0]
        if idx.size:
            points[idx] = _draw(rng, m.components[k], idx.size)
    return SampleSet(points=points, labels=assignment)
