"""Mixture fitting by EM, BIC scoring, KNN on distance rows, classical MDS.

The EM routine works entirely in log space: responsibilities come from a
log-sum-exp over per-component log densities, so high concentrations and
high dimensions never leave the representable range.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bessel import _TINY, _check_dimension, _log_ive_and_ratio, logsumexp
from .core import SampleSet, VmfMixture, VmfParams, _log_peak, log_peak_density
from .rng import substream


# An EM restart stops once an iteration moves its log-likelihood by at most
# TOL relative to it, or after MAX_ITERS; concentrations stop at KAPPA_CAP,
# and kappa_mle's at MLE_KAPPA_CAP.
MAX_ITERS, TOL, KAPPA_CAP, MLE_KAPPA_CAP = 500, 1e-8, 1e5, 1e12
# mds_embed's Lanczos stops once each of the top dim Ritz pairs has a
# residual of at most MDS_TOL times the largest Ritz value's magnitude.
MDS_TOL = 1e-12


@dataclass(frozen=True)
class FitConfig:
    k: int
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("k", "restarts"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
            object.__setattr__(self, name, int(value))


@dataclass(frozen=True)
class FitResult:
    mixture: VmfMixture
    log_likelihood: float
    bic: float
    iterations: int
    converged: bool
    reseeds: int


@dataclass(frozen=True)
class MdsResult:
    coords: np.ndarray
    eigenvalues: np.ndarray
    n_positive: int

    @property
    def padded(self) -> bool:
        return self.n_positive < self.coords.shape[1]


def kappa_mle(r_bar: float, d: int) -> float:
    """Concentration solving A_d(kappa) = r_bar for the observed mean
    resultant length, at most MLE_KAPPA_CAP.

    Starts from the rational approximation r(d - r^2)/(1 - r^2) (Banerjee et
    al. 2005) and refines it with the guarded Halley steps of _kappa_newton.
    """
    r_bar = float(r_bar)
    if not 0.0 < r_bar < 1.0:
        raise ValueError(f"r_bar must lie in (0, 1), got {r_bar}")
    _check_dimension(d)
    return float(_kappa_newton(np.array([r_bar]), d, MLE_KAPPA_CAP)[0][0])


def _kappa_newton(r_bar: np.ndarray, d: int, kappa_cap: float, kappa=None, a=None, log_c=None):
    """kappa_mle elementwise over an array of mean resultant lengths in
    (0, 1): the concentrations, and A_d and log C_d at each (NaN at the cap).

    Starts from kappa where given (a warm start, such as the previous EM
    iterate) and within 50 % of Banerjee's estimate, else from that
    estimate. a and log_c hold A_d and log C_d at the start where known and
    NaN elsewhere, so a solve started from the last one's result makes no
    Bessel call for its first step. Each element takes at most 25 steps,
    only while it moves, and stops at |A_d(kappa) - r_bar| < 1e-10 or at the
    cap; one still short of both after 25 steps raises RuntimeError.
    A step is Halley's (Song, Liu & Wang 2012) where |resid A''| < A'^2,
    which keeps its denominator above A'^2 / 2, and Newton's (Sra 2012)
    elsewhere. Both derivatives come from A_d, with no Bessel call of their
    own, and past kappa = 1e6 sqrt(d) from its large-argument expansion.
    """
    cold = np.clip(r_bar * (d - r_bar * r_bar) / (1.0 - r_bar * r_bar), 1e-12, kappa_cap)
    kappa = cold if kappa is None else np.array(kappa, dtype=np.float64)
    a, log_c = (np.full(kappa.size, np.nan) if v is None else np.array(v, float)
                for v in (a, log_c))
    # Banerjee's estimate lies at most 7 % above the root (measured for d up
    # to 1000). A start more than 50 % away from it takes it instead: below
    # the root a step at most doubles kappa, and from far above one lands
    # near 0.
    away = np.abs(kappa - cold) > 0.5 * cold
    kappa[away], a[away], log_c[away] = cold[away], np.nan, np.nan
    live = np.arange(kappa.size)
    for steps in range(26):
        fresh = live[np.isnan(a[live])]
        if fresh.size:  # A_d, and log C_d from the same Bessel evaluation
            log_i, a[fresh] = _log_ive_and_ratio(d / 2.0 - 1.0, kappa[fresh], True)
            log_c[fresh] = _log_peak(d, kappa[fresh], log_i) - kappa[fresh]
        resid = a[live] - r_bar[live]
        moving = np.abs(resid) >= 1e-10
        live, resid = live[moving], resid[moving]
        if live.size == 0:
            return kappa, a, log_c
        if steps == 25:
            raise RuntimeError(f"concentration solve did not converge in 25 steps at d={d}, "
                               f"r_bar={float(r_bar[live[0]])!r}, kappa={float(kappa[live[0]])!r}")
        cur, at = kappa[live], a[live]
        slope = 1.0 - at * at - (d - 1.0) * at / cur
        curve = -2.0 * at * slope - (d - 1.0) * (slope * cur - at) / (cur * cur)
        # Past 1e6 sqrt(d) these cancel to fewer digits than A_d carries, so
        # the derivatives come from the expansion A_d = 1 - c1/kappa + c2/kappa^2.
        if (far := cur > 1e6 * math.sqrt(d)).any():
            kf, c1, c2 = cur[far], (d - 1.0) / 2.0, (d - 1.0) * (d - 3.0) / 8.0
            slope[far] = (c1 - 2.0 * c2 / kf) / (kf * kf)
            curve[far] = (6.0 * c2 / kf - 2.0 * c1) / (kf * kf * kf)
        halley = np.abs(resid * curve) < slope * slope
        step = np.where(halley, resid * slope / (slope * slope - 0.5 * resid * curve),
                        resid / slope)
        # A step can overshoot past zero near the origin; halve into range.
        nxt = cur - step
        while (over := nxt <= 0.0).any():
            step[over] *= 0.5
            nxt[over] = cur[over] - step[over]
        kappa[live] = np.minimum(nxt, kappa_cap)
        a[live], log_c[live] = np.nan, np.nan
        live = live[nxt < kappa_cap]


def bic(log_likelihood: float, k: int, d: int, n: int) -> float:
    """-2 log L + (k(d+1) - 1) log n for a k-component vMF mixture in R^d."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return -2.0 * log_likelihood + (k * (d + 1) - 1) * math.log(n)


def _component_log_pdfs(points, mus, kappas, weights, log_c):
    """k x n matrix of log(w_j f_j(x_i)), one matmul for all components, or
    r such matrices for r stacked mixtures ((r, k, d) means). log_c holds
    log C_d at kappas, NaN where not known; those entries are filled in
    place from one log_peak_density call."""
    if (miss := np.isnan(log_c)).any():
        log_c[miss] = log_peak_density(points.shape[1], kappas[miss]) - kappas[miss]
    out = mus @ points.T
    out *= kappas[..., None]
    out += (np.log(weights) + log_c)[..., None]
    return out


def mixture_log_pdf(m: VmfMixture, points: np.ndarray) -> np.ndarray:
    """Per-point log density of the mixture at unit-norm rows."""
    points = np.asarray(points, dtype=np.float64)
    mus = np.stack([c.mu for c in m.components])
    kappas, log_c = np.array([c.kappa for c in m.components]), np.full(m.k, np.nan)
    return logsumexp(_component_log_pdfs(points, mus, kappas, m.weights, log_c), axis=0)


def mixture_log_likelihood(m: VmfMixture, points: np.ndarray) -> float:
    return float(mixture_log_pdf(m, points).sum())


def _seed_directions(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding by geodesic distance: the first seed is a random
    point, each next is drawn with probability proportional to the squared
    distance to its nearest seed. Fully random so restarts genuinely differ."""
    n = X.shape[0]
    seeds = [int(rng.integers(n))]
    if k > 1:
        closest = np.arccos(np.clip(X @ X[seeds[0]], -1.0, 1.0)) ** 2
        for _ in range(k - 1):
            total = float(closest.sum())
            if total <= 0.0:
                seeds.append(int(rng.integers(n)))
            else:
                seeds.append(int(rng.choice(n, p=closest / total)))
            dist = np.arccos(np.clip(X @ X[seeds[-1]], -1.0, 1.0)) ** 2
            closest = np.minimum(closest, dist)
    return X[seeds]


_EM_BLOCK = 1 << 18  # elements per block of restarts, at (n + d) k each: 2 MB arrays
_LOG_TINY = math.log(_TINY)  # exp(x) < tiny exactly when x < _LOG_TINY


def _em_start(X: np.ndarray, k: int, rng: np.random.Generator):
    """One restart's initial (mus, r_bars, kappas, A_d and log C_d at kappas,
    weights) from k-means++ seeds."""
    n, d = X.shape
    seeds = _seed_directions(X, k, rng)
    assign = np.argmax(X @ seeds.T, axis=1)
    mus, r_bars, weights = np.empty((k, d)), np.empty(k), np.empty(k)
    for j in range(k):
        members = np.nonzero(assign == j)[0]
        if members.size == 0:
            members = np.array([int(rng.integers(n))])
        resultant = X[members].sum(axis=0)
        norm = float(np.linalg.norm(resultant))
        mus[j] = resultant / norm if norm > 0 else seeds[j]
        r_bars[j] = min(max(norm / members.size, 1e-10), 1.0 - 1e-12) if norm > 0 else 0.5
        weights[j] = members.size / n
    return (mus, r_bars, *_kappa_newton(r_bars, d, KAPPA_CAP), weights / weights.sum())


def _theta(weights, r_bars, mus):
    """The vector SQUAREM extrapolates, a (weight, r_bar mu) row per
    component: the M-step's own statistics."""
    return np.concatenate([weights[..., None], r_bars[..., None] * mus], axis=-1)


def _component_sums(a, cuts):
    """Per row of a (restart, K) array, the sum over its config's k
    components only, in the bits a (restarts, k) array of that config alone
    gives: numpy sums pairwise from 8 terms, so padding moves the rounding."""
    out = np.empty(a.shape[0])
    for rows, k in cuts:
        a[rows, :k].sum(axis=1, out=out[rows])
    return out


def _extrapolate(theta0, step, theta2, step_max, cuts):
    """SQUAREM's SqS3 candidates (Varadhan & Roland 2008) from the cycles
    theta0 -> theta1 -> theta2 of stacked restarts, step = theta1 - theta0:
    with r = step and v = theta2 - theta0 - 2 r, the step length s = |r|/|v|
    clipped to [1, step_max] (alpha = -s; step_max is a power of 4, so s equals
    it exactly when clipped there), and the candidate
    theta0 + 2 s r + s^2 v, written as theta2 + (s - 1)(2 r + (s + 1) v) so
    that s = 1 gives theta2 exactly. Returns the candidates and s."""
    v = theta2 - theta0
    v -= 2.0 * step
    r2, v2 = (_component_sums((a * a).sum(axis=-1), cuts) for a in (step, v))
    s = step_max * step_max
    np.divide(r2, v2, out=s, where=r2 < s * v2)
    s = np.sqrt(np.maximum(s, 1.0))
    v *= (s + 1.0)[:, None, None]  # in place, in the order of the formula: the same bits
    v += 2.0 * step
    v *= (s - 1.0)[:, None, None]
    v += theta2
    return v, s


def _m_step(n, n_eff, resultants, fed, mus, r_bars, weights):
    """The M-step in place at the fed components, through masked ufuncs: on
    small arrays fancy indexing costs more per call. A zero resultant
    leaves its direction, as in _em_start."""
    norms = np.sqrt((resultants * resultants).sum(axis=2))  # np.linalg.norm's arithmetic
    np.divide(resultants, norms[..., None], out=mus, where=(fed & (norms > 0.0))[..., None])
    np.divide(n_eff, n, out=weights, where=fed)
    np.divide(norms, n_eff, out=r_bars, where=fed)
    np.clip(r_bars, 1e-10, 1.0 - 1e-12, out=r_bars, where=fed)


def _em_block(X: np.ndarray, jobs: list) -> list:
    """The EM restarts of a block's (config, restarts) jobs advanced
    together, a list of (mixture, log-likelihood, iterations, converged,
    reseeds) tuples per job, one per restart, in order.

    The restarts still iterating stack along the first axis of one set of
    (restart, component, ...) arrays, padded to the block's largest k, and
    leave when they converge. The E-step runs per job on its rows and k
    columns, so its arrays are (restart, component, point), each freed
    before the next job's are formed, and its sums and products run along
    rows of n points, each with the shape and axis one restart alone would
    use: each result is bit-identical to that run. One exp gives both the
    log-sum-exp and the responsibilities, and no value is subnormal (below
    tiny, where exp and resp @ X run several times slower): an exponent
    below log(tiny) becomes -inf, under half an ulp of a column sum that
    holds exp(0) = 1, and a responsibility below tiny is zeroed, which
    moves each resultant coordinate by less than n * tiny. All else runs
    once per iteration for the whole block: padded components are never
    fed, starved or solved, sums over components run per job
    (_component_sums), and one _kappa_newton call solves every
    concentration, elementwise, so each value is the one a solve of the
    restart alone returns.

    Each restart runs SQUAREM cycles with one E-step per iteration; its
    phase says where the next one is: 0 at a cycle's first iterate theta0,
    1 at theta1 = M(theta0), 2 at the candidate _extrapolate forms from
    theta0, theta1 and theta2 = M(theta1). Convergence is tested at phase 1
    only, against theta0's log-likelihood. A candidate is formed when
    neither M-step of the cycle starved a component and it lies in the
    domain (every weight > 0 and 1e-10 <= |r_bar mu| <= 1 - 1e-12), and its
    concentrations join theta2's solve from the same start, theta1's. It is
    kept, as the next cycle's theta0, when its log-likelihood beats theta1's
    by more than 1e-3 TOL relative, a margin far above rounding, so that a
    candidate tying theta1 at the optimum is dropped under any summation
    order; otherwise the restart goes on from theta2. step_max starts at 1;
    a step of that length multiplies it by 4 when kept and divides it by 4
    (not below 1) when dropped or outside the domain.
    """
    n, d = X.shape
    sizes = [len(restarts) for _, restarts in jobs]
    job = np.repeat(np.arange(len(jobs)), sizes)  # each block position's job
    ks = np.array([cfg.k for cfg, _ in jobs])[job]
    real = np.arange(ks.max()) < ks[:, None]  # a component, not padding
    state = [np.zeros(real.shape + s) for s in ((d,), (), (), (), (), ())]
    starts = (_em_start(X, cfg.k, substream(cfg.seed, "em-restart", r)) for cfg, restarts in jobs
              for r in restarts)
    for p, start in enumerate(starts):
        for a, v in zip(state, start):
            a[p, :len(v)] = v
    mus, r_bars, kappas, ads, log_cs, weights = state
    live = np.arange(ks.size)  # block positions of the restarts still iterating
    ll_ref, reseeds = np.full(live.size, -np.inf), np.zeros(live.size, dtype=np.int64)
    # phase 3 is phase 2 with a step of length step_max
    phase, step_max = np.zeros(live.size, dtype=np.int64), np.ones(live.size)
    theta0 = np.zeros(mus.shape[:2] + (d + 1,))
    step = np.zeros_like(theta0)
    saved = [v.copy() for v in state]  # theta2 behind a candidate
    out, iterations = [None] * live.size, 0

    def slices():
        """(rows, k) of each job still iterating: its restarts stay adjacent."""
        ends = np.cumsum(counts := np.bincount(job[live], minlength=len(jobs))).tolist()
        return [(slice(e - c, e), cfg.k) for (cfg, _), c, e in zip(jobs, counts.tolist(), ends) if c]

    def leave(done, lls=None):
        """A converged restart leaves with the E-step's log-likelihood of its
        iterate (lls); one at MAX_ITERS, one M-step past its last E-step, is
        scored as returned."""
        for i, (p, m, c, lc, w) in enumerate(zip(live[done], mus[done], kappas[done], log_cs[done],
                                                 weights[done])):
            m, c, lc, w = (v[:ks[p]] for v in (m, c, lc, w))
            mixture = VmfMixture(components=tuple(map(VmfParams, m, c)), weights=w)
            ll = float(logsumexp(_component_log_pdfs(X, m, c, mixture.weights, lc), axis=0).sum()
                       if lls is None else lls[i])
            out[p] = (mixture, ll, iterations, lls is not None, int(reseeds[p]))

    def swap(rows, into, source):
        for a, b in zip(into, source):
            np.copyto(a, b, where=rows.reshape(rows.shape + (1,) * (a.ndim - 1)))

    cuts = slices()
    for iterations in range(1, MAX_ITERS + 1):
        ll, worst = np.empty(live.size), np.zeros(live.size, dtype=np.intp)
        n_eff, resultants = np.zeros(real.shape), np.zeros(mus.shape)
        for rows, k in cuts:
            logp = _component_log_pdfs(X, mus[rows, :k], kappas[rows, :k], weights[rows, :k],
                                       log_cs[rows, :k])
            top = logp.max(axis=1)
            logp -= top[:, None]
            logp[logp < _LOG_TINY] = -np.inf
            resp = np.exp(logp, out=logp)  # e, divided in place below
            total = resp.sum(axis=1)
            ll[rows] = (top + np.log(total)).sum(axis=1)
            resp /= total[:, None]
            resp[resp < _TINY] = 0.0
            resp.sum(axis=2, out=n_eff[rows, :k])
            resultants[rows, :k] = resp @ X
            if (n_eff[rows, :k] < 1.0).any():  # starved components restart at the worst-explained point
                worst[rows] = np.argmin(resp.max(axis=1), axis=1)
            del logp, resp  # free the k x n arrays before the next job's are formed
        trial, gain, tol = phase >= 2, ll - ll_ref, TOL * np.abs(ll)
        kept = trial & (gain > 1e-3 * tol)
        dropped = trial ^ kept
        if (bound := phase == 3).any():
            step_max[bound] = np.maximum(step_max[bound] * np.where(kept[bound], 4.0, 0.25), 1.0)
        first, second = (phase == 0) | kept, phase == 1
        done = second & (np.abs(gain) <= tol)
        if leaving := done.any():
            leave(done, ll[done])
        ll_ref = ll

        theta = _theta(weights, r_bars, mus)
        np.copyto(theta0, theta, where=first[:, None, None])
        np.subtract(theta, theta0, out=step, where=second[:, None, None])
        del theta  # large at high d, and not needed past here
        fed = n_eff >= 1.0
        starved = real & ~fed
        if dropped.any():  # a dropped candidate makes no M-step
            fed[dropped] = starved[dropped] = False
        _m_step(n, n_eff, resultants, fed, mus, r_bars, weights)
        if starved.any():
            mus[starved] = X[np.broadcast_to(worst[:, None], fed.shape)[starved]]
            weights[starved] = 1.0 / n
            reseeds[live] += np.count_nonzero(starved, axis=1)
        weights /= _component_sums(weights, cuts)[:, None]
        if dropped.any():
            swap(dropped, state, saved)
        clean = ~starved.any(axis=1)  # a reseed starts a new cycle
        phase = np.where(first & clean, 1, 0)
        # Each solve starts from the last iterate with A_d and log C_d there (NaN at the
        # cap); a candidate's from theta1's, as theta2's does.
        ask, into = [v[fed] for v in (r_bars, kappas, ads, log_cs)], None
        if (form := second & clean & ~done).any():
            # Every row is extrapolated, from finite if stale values where not formed.
            cand, s = _extrapolate(theta0, step, _theta(weights, r_bars, mus), step_max, cuts)
            sq = (cand[..., 1:] * cand[..., 1:]).sum(axis=-1)
            domain = (cand[..., 0] > 0.0) & (sq >= 1e-20) & (sq <= (1.0 - 1e-12) ** 2)
            inside = form & (domain | ~real).all(axis=1)
            at_max = s == step_max
            if (shrink := form & at_max & ~inside).any():
                step_max[shrink] = np.maximum(step_max[shrink] / 4.0, 1.0)
            phase = np.where(inside, 2 + at_max, phase)
            into, norm = inside[:, None] & real, np.sqrt(sq)
            ask = [np.concatenate([a, v[into]]) for a, v in zip(ask, (norm, kappas, ads, log_cs))]
        m = np.count_nonzero(fed)
        solved = _kappa_newton(ask[0], d, KAPPA_CAP, *ask[1:])
        kappas[fed], ads[fed], log_cs[fed] = (v[:m] for v in solved)
        if into is not None:
            swap(inside, saved, state)
            np.divide(cand[..., 1:], norm[..., None], out=mus, where=into[..., None])
            np.copyto(r_bars, norm, where=into)
            np.divide(cand[..., 0], _component_sums(cand[..., 0], cuts)[:, None], out=weights,
                      where=into)
            kappas[into], ads[into], log_cs[into] = (v[m:] for v in solved)
            del cand  # not held through the next E-step
        if leaving:  # the converged restarts leave only now: their M-step above is discarded
            keep = ~done
            live, ll_ref, phase, step_max, theta0, step, real, *state = (
                v[keep] for v in (live, ll_ref, phase, step_max, theta0, step, real, *state))
            mus, r_bars, kappas, ads, log_cs, weights = state
            saved = [v[keep] for v in saved]
            if live.size == 0:
                break
            cuts = slices()
    swap(phase >= 2, state, saved)  # at the cap, never an unchecked candidate
    leave(np.ones(live.size, dtype=bool))
    return [out[e - size:e] for size, e in zip(sizes, np.cumsum(sizes).tolist())]


def _em_blocks(cfgs, n: int, d: int):
    """The (config index, restarts) jobs of each block, in order: the
    restarts of the configs, in order, fill blocks of at most _EM_BLOCK
    elements, and a restart larger than that has a block of its own. A
    restart counts k n + K d for its k and the block's largest, K: its
    E-step arrays and its rows of the padded state; as K < n, this bounds
    the (restart, K, d + 1) arrays too. Planned as they are taken, so one
    block's jobs are held at a time whatever the restart counts."""
    block, kn, rows, top = [], 0, 0, 0
    for i, cfg in enumerate(cfgs):
        first = 0
        while first < cfg.restarts:
            k_max = max(top, cfg.k)
            used, size = kn + rows * k_max * d, cfg.k * n + k_max * d
            if used + size > _EM_BLOCK and block:
                yield block
                block, kn, rows, top = [], 0, 0, 0
                continue
            stop = min(cfg.restarts, first + max(1, (_EM_BLOCK - used) // size))
            block.append((i, range(first, stop)))
            kn, rows, top = kn + cfg.k * n * (stop - first), rows + stop - first, k_max
            first = stop
    if block:
        yield block


def fit_em_many(data: SampleSet, cfgs) -> list:
    """fit_em for each config, all fitted together; each FitResult is bit
    for bit the one fit_em returns for its config.

    The restarts of the configs fill blocks of bounded size (_em_blocks),
    and each block's restarts advance as one stack (_em_block), with one
    M-step and one concentration solve per iteration for all of them.
    """
    X = data.points
    if X.shape[0] == 0:
        raise ValueError("cannot fit an empty sample")
    for cfg in cfgs:
        if cfg.k >= X.shape[0]:
            raise ValueError(f"need more observations than components ({cfg.k} >= {X.shape[0]})")

    best = [None] * len(cfgs)
    for block in _em_blocks(cfgs, *X.shape):
        for (i, _), results in zip(block, _em_block(X, [(cfgs[i], r) for i, r in block])):
            for result in results:  # the first restart with the highest log-likelihood wins
                if best[i] is None or result[1] > best[i][1]:
                    best[i] = result
    return [FitResult(mixture=mixture, log_likelihood=ll, bic=bic(ll, cfg.k, data.d, data.n),
                      iterations=iterations, converged=converged, reseeds=reseeds)
            for cfg, (mixture, ll, iterations, converged, reseeds) in zip(cfgs, best)]


def fit_em(data: SampleSet, cfg: FitConfig) -> FitResult:
    """Best-of-restarts EM fit of a k-component vMF mixture.

    Each restart seeds the initializer from its own derived stream. The
    restarts advance together in blocks of bounded size, each leaving its
    block when it converges; the first with the highest final log-likelihood
    wins. Non-convergence within MAX_ITERS is reported, not raised.
    """
    return fit_em_many(data, [cfg])[0]


def knn_predict(distances, train_labels, k: int) -> int:
    """Majority label among the k nearest training items.

    Ties on the vote count break first by smaller mean distance within the
    k-neighborhood, then by smaller label.
    """
    dist = np.asarray(distances, dtype=np.float64)
    labels = np.asarray(train_labels, dtype=np.int64)
    if dist.ndim != 1 or dist.size == 0:
        raise ValueError("need a nonempty vector of distances")
    if labels.shape != dist.shape:
        raise ValueError("labels must match distances")
    if not 1 <= k <= dist.size:
        raise ValueError(f"k must be in [1, {dist.size}], got {k}")
    order = np.argsort(dist, kind="stable")[:k]
    near_labels = labels[order]
    near_dists = dist[order]
    candidates = {}
    for lab in np.unique(near_labels):
        mask = near_labels == lab
        candidates[int(lab)] = (-int(mask.sum()), float(near_dists[mask].mean()), int(lab))
    return min(candidates, key=candidates.get)


def mds_embed(dm, dim: int) -> MdsResult:
    """Classical (double-centering) MDS embedding of a distance matrix.

    The matrix is first scaled by a power of two that brings its largest
    entry into [0.5, 1), and the coordinates are scaled back at the end;
    both steps are exact, and the largest square neither overflows nor
    underflows. The Gram matrix is double-centred by its row and column
    means, and its top dim eigenpairs come from _top_eigenpairs. Each axis
    is signed so that its largest-magnitude coordinate (the first, if
    magnitudes tie) is positive.

    Eigenvalues below zero are truncated; if fewer than dim positive
    eigenvalues exist, the missing columns are zero and the result is
    flagged as padded. So is an axis whose largest coordinate, scaled back,
    is below the normal float range, where coordinates lose their
    precision. The eigenvalue of a kept axis, on the square of the scale,
    can leave the float range, and is then reported as its rounding: 0
    below the range, inf above it.
    """
    d = dm.entries
    n = d.shape[0]
    if n < 2:
        raise ValueError(f"an embedding needs at least 2 points, got {n}")
    if not 1 <= dim < n:
        raise ValueError(f"dim must be in [1, {n - 1}], got {dim}")
    shift = int(np.frexp(d.max())[1])
    b = np.ldexp(d, -shift)
    b *= b
    # b_ij = -(sq_ij - r_i - r_j + mean(r)) / 2, with r the row means of the
    # squares; the matrix being symmetric, they are its column means too.
    half = 0.5 * b.mean(axis=1)
    half -= 0.5 * half.mean()
    b *= -0.5
    b += half
    b += half[:, None]
    evals, evecs = _top_eigenpairs(b, dim)
    # Numerical-rank cutoff: rounding noise around zero must not masquerade
    # as a usable axis.
    cutoff = n * np.finfo(float).eps * max(float(evals[0]), 0.0)
    positive = evals > cutoff
    coords = np.zeros((n, dim))
    coords[:, positive] = evecs[:, positive] * np.sqrt(evals[positive])
    coords = np.ldexp(coords, shift)
    # Scaled back below the normal range, an axis loses its precision, down
    # to all zeros: it is padding like any other (+0, not -0).
    positive &= np.abs(coords).max(axis=0) >= np.finfo(float).tiny
    coords[:, ~positive] = 0.0
    peak = coords[np.abs(coords).argmax(axis=0), np.arange(dim)]
    coords *= np.where(peak < 0.0, -1.0, 1.0)
    with np.errstate(over="ignore"):  # an eigenvalue past the float range is reported as inf
        evals = np.ldexp(np.where(positive, evals, 0.0), 2 * shift)
    return MdsResult(coords=coords, eigenvalues=evals, n_positive=int(positive.sum()))


def _top_eigenpairs(b: np.ndarray, k: int):
    """The k largest eigenvalues of the symmetric matrix b, in descending
    order, and their unit eigenvectors as columns.

    Block Lanczos with full reorthogonalisation (classical Gram-Schmidt,
    twice), one vector at a time: the basis starts with k fixed random
    orthonormal vectors, and vector j + k is b q_j made orthogonal to every
    vector before it. From a start block of k vectors the Krylov space holds
    up to k copies of a repeated eigenvalue, all that the top k pairs can
    need; from one vector it would hold one. The projected matrix
    t = Q^T b Q is banded, t[r, j] = 0 for r > j + k, and only its lower
    band is kept. A new direction below n eps times b's Frobenius norm is
    rounding noise, and a fresh random vector orthogonal to the basis takes
    its place. With m columns of t complete, at m = 2k + 4 and then at each
    1.5-fold m, the iteration stops once each of the top k Ritz pairs
    (theta, s) has residual ||t[m:m+k, m-k:m] s[m-k:]|| <= MDS_TOL max|theta|.
    At m = n the basis spans the whole space and the Ritz pairs are exact.
    Every product is a matrix-vector one: matrix-matrix products of more
    than a few columns round differently at different BLAS thread counts.
    """
    n = b.shape[0]
    rng = substream(0, "mds")
    tiny = n * np.finfo(float).eps * float(np.sqrt(np.einsum("ij,ij->", b, b)))
    basis = np.empty((n, n))  # row j is the j-th Lanczos vector; untouched rows cost no memory
    band = np.zeros((n, n))  # band[r, j] = q_r . b q_j for j <= r <= j + k

    def fresh(m):  # a random unit vector orthogonal to basis[:m]
        w = rng.standard_normal(n)
        for _ in range(2):
            w -= (basis[:m] @ w) @ basis[:m]
        return w / math.sqrt(w @ w)

    for r in range(k):
        basis[r] = fresh(r)
    test = min(2 * k + 4, n)
    for j in range(n):
        w = b @ basis[j]
        top = min(j + k, n)
        for _ in range(2):
            h = basis[:top] @ w
            w -= h @ basis[:top]
            band[j:top, j] += h[j:]
        if top < n:
            beta = math.sqrt(w @ w)
            band[top, j] = beta if beta > tiny else 0.0
            basis[top] = w / beta if beta > tiny else fresh(top)
        m = j + 1
        if m >= test:
            theta, s = np.linalg.eigh(band[:m, :m])
            theta, s = theta[::-1][:k], s[:, ::-1][:, :k]
            residual = np.linalg.norm(band[m:m + k, m - k:m] @ s[m - k:], axis=0)
            if m == n or np.all(residual <= MDS_TOL * np.abs(theta).max()):
                return theta, np.column_stack([x @ basis[:m] for x in s.T])
            test = min(math.ceil(1.5 * m), n)
