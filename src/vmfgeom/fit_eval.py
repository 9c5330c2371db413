"""Mixture fitting by EM, BIC scoring, KNN on distance rows, classical MDS.

The EM routine works entirely in log space: responsibilities come from a
log-sum-exp over per-component log densities, so high concentrations and
high dimensions never leave the representable range.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bessel import _TINY, _check_dimension, _log_ive_and_ratio, logsumexp
from .core import SampleSet, VmfMixture, VmfParams, _log_peak, log_peak_density
from .rng import substream


# An EM restart stops once an iteration moves its log-likelihood by at most
# TOL relative to it, or after MAX_ITERS; concentrations stop at KAPPA_CAP,
# and kappa_mle's at MLE_KAPPA_CAP.
MAX_ITERS, TOL, KAPPA_CAP, MLE_KAPPA_CAP = 500, 1e-8, 1e5, 1e12


@dataclass(frozen=True)
class FitConfig:
    k: int
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("k", "restarts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


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


def _extrapolate(theta0, step, theta2, step_max):
    """SQUAREM's SqS3 candidates (Varadhan & Roland 2008) from the cycles
    theta0 -> theta1 -> theta2 of stacked restarts, step = theta1 - theta0:
    with r = step and v = theta2 - theta0 - 2 r, the step length s = |r|/|v|
    clipped to [1, step_max] (alpha = -s; step_max is a power of 4, so s equals
    it exactly when clipped there), and the candidate
    theta0 + 2 s r + s^2 v, written as theta2 + (s - 1)(2 r + (s + 1) v) so
    that s = 1 gives theta2 exactly. Returns the candidates and s."""
    v = theta2 - theta0
    v -= 2.0 * step
    r2, v2 = ((a * a).sum(axis=-1).sum(axis=-1) for a in (step, v))
    s = step_max * step_max
    np.divide(r2, v2, out=s, where=r2 < s * v2)
    s = np.sqrt(np.maximum(s, 1.0))
    v *= (s + 1.0)[:, None, None]  # in place, in the order of the formula: the same bits
    v += 2.0 * step
    v *= (s - 1.0)[:, None, None]
    v += theta2
    return v, s


def _em_group(X: np.ndarray, cfg: FitConfig, restarts: range):
    """EM restarts of one config advanced together, as a generator: at each
    M-step it yields the (r_bar, kappa, A_d, log C_d) of the components to
    solve, each as a list of arrays to concatenate, and takes back their
    solved (kappa, A_d, log C_d). It returns a
    (mixture, log-likelihood, iterations, converged, reseeds) tuple per
    restart, in order.

    The restarts still iterating stack along the first axis of every array
    and leave when they converge. The E-step arrays are (restart, component,
    point), so its sums and products run along rows of n points, each with
    the shape and axis one restart alone would use: each result is
    bit-identical to that run. One exp gives both the log-sum-exp and the
    responsibilities, and no value is subnormal (below tiny, where exp and
    resp @ X run several times slower): an exponent below log(tiny) becomes
    -inf, under half an ulp of a column sum that holds exp(0) = 1, and a
    responsibility below tiny is zeroed, which moves each resultant
    coordinate by less than n * tiny.

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
    n = X.shape[0]
    mus, r_bars, kappas, ads, log_cs, weights = map(np.stack, zip(*(
        _em_start(X, cfg.k, substream(cfg.seed, "em-restart", r)) for r in restarts)))
    live = np.arange(len(restarts))  # block positions of the restarts still iterating
    ll_ref, reseeds = np.full(live.size, -np.inf), np.zeros(live.size, dtype=np.int64)
    # phase 3 is phase 2 with a step of length step_max
    phase, step_max = np.zeros(live.size, dtype=np.int64), np.ones(live.size)
    theta0 = np.zeros(mus.shape[:2] + (mus.shape[2] + 1,))
    step = np.zeros_like(theta0)
    saved = [v.copy() for v in (mus, r_bars, kappas, ads, log_cs, weights)]  # theta2 behind a candidate
    out, iterations = [None] * live.size, 0

    def leave(done, lls=None):
        """A converged restart leaves with the E-step's log-likelihood of its
        iterate (lls); one at MAX_ITERS, one M-step past its last E-step, is
        scored as returned."""
        for i, (p, m, c, lc, w) in enumerate(zip(live[done], mus[done], kappas[done], log_cs[done],
                                                 weights[done])):
            mixture = VmfMixture(components=tuple(map(VmfParams, m, c)), weights=w)
            ll = float(logsumexp(_component_log_pdfs(X, m, c, mixture.weights, lc), axis=0).sum()
                       if lls is None else lls[i])
            out[p] = (mixture, ll, iterations, lls is not None, int(reseeds[p]))

    def swap(rows, into, source):
        for a, b in zip(into, source):
            np.copyto(a, b, where=rows.reshape(rows.shape + (1,) * (a.ndim - 1)))

    for iterations in range(1, MAX_ITERS + 1):
        logp = _component_log_pdfs(X, mus, kappas, weights, log_cs)
        top = logp.max(axis=1)
        logp -= top[:, None]
        logp[logp < _LOG_TINY] = -np.inf
        resp = np.exp(logp, out=logp)  # e, divided in place below
        total = resp.sum(axis=1)
        ll = (top + np.log(total)).sum(axis=1)
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
        resp /= total[:, None]
        resp[resp < _TINY] = 0.0

        n_eff = resp.sum(axis=2)
        resultants = resp @ X
        norms = np.sqrt((resultants * resultants).sum(axis=2))  # np.linalg.norm's arithmetic
        theta = _theta(weights, r_bars, mus)
        np.copyto(theta0, theta, where=first[:, None, None])
        np.subtract(theta, theta0, out=step, where=second[:, None, None])
        del theta  # large at high d, and not needed past here
        fed = n_eff >= 1.0
        starved = ~fed
        if dropped.any():  # a dropped candidate makes no M-step
            fed[dropped] = starved[dropped] = False
        # Masked ufuncs rather than fancy indexing: these arrays are small, and the
        # per-call cost is what an iteration pays. A zero resultant leaves its
        # direction, as in _em_start.
        np.divide(resultants, norms[..., None], out=mus, where=(fed & (norms > 0.0))[..., None])
        np.divide(n_eff, n, out=weights, where=fed)
        np.divide(norms, n_eff, out=r_bars, where=fed)
        np.clip(r_bars, 1e-10, 1.0 - 1e-12, out=r_bars, where=fed)
        r_bar = r_bars[fed]
        if starved.any():
            # Starved components restart at their restart's worst-explained point.
            worst = np.argmin(resp.max(axis=1), axis=1)
            mus[starved] = X[np.broadcast_to(worst[:, None], fed.shape)[starved]]
            weights[starved] = 1.0 / n
            reseeds[live] += np.count_nonzero(starved, axis=1)
        weights /= weights.sum(axis=1, keepdims=True)
        del logp, resp  # free the k x n arrays before the solve waits on the other groups
        state = mus, r_bars, kappas, ads, log_cs, weights
        if dropped.any():
            swap(dropped, state, saved)
        clean = ~starved.any(axis=1)  # a reseed starts a new cycle
        phase = np.where(first & clean, 1, 0)
        # Each solve starts from the last iterate with A_d and log C_d there (NaN at the
        # cap); a candidate's from theta1's, as theta2's does.
        ask, cands = [[r_bar], [kappas[fed]], [ads[fed]], [log_cs[fed]]], None
        if (form := second & clean & ~done).any():
            # Every row is extrapolated, from finite if stale values where not formed.
            cand, s = _extrapolate(theta0, step, _theta(weights, r_bars, mus), step_max)
            sq = (cand[..., 1:] * cand[..., 1:]).sum(axis=-1)
            inside = form & ((cand[..., 0] > 0.0) & (sq >= 1e-20) & (sq <= (1.0 - 1e-12) ** 2)).all(axis=1)
            at_max = s == step_max
            if (shrink := form & at_max & ~inside).any():
                step_max[shrink] = np.maximum(step_max[shrink] / 4.0, 1.0)
            phase = np.where(inside, 2 + at_max, phase)
            cands = inside, cand, np.sqrt(sq)
            for piece, v in zip(ask, (cands[2], kappas, ads, log_cs)):
                piece.append(v[inside].ravel())
        solved = yield ask
        m = r_bar.size
        kappas[fed], ads[fed], log_cs[fed] = (v[:m] for v in solved)
        if cands:
            inside, cand, norm = cands
            swap(inside, saved, state)
            np.divide(cand[..., 1:], norm[..., None], out=mus, where=inside[:, None, None])
            np.copyto(r_bars, norm, where=inside[:, None])
            np.divide(cand[..., 0], cand[..., 0].sum(axis=1, keepdims=True), out=weights,
                      where=inside[:, None])
            kappas[inside], ads[inside], log_cs[inside] = (v[m:].reshape(-1, norm.shape[1]) for v in solved)
            del cands, cand  # not held through the next E-step
        if leaving:  # the converged restarts leave only now: their M-step above is discarded
            keep = ~done
            live, ll_ref, phase, step_max, theta0, step, mus, r_bars, kappas, ads, log_cs, weights = (
                v[keep] for v in (live, ll_ref, phase, step_max, theta0, step, *state))
            saved = [v[keep] for v in saved]
            if live.size == 0:
                break
    swap(phase >= 2, (mus, r_bars, kappas, ads, log_cs, weights), saved)  # at the cap, never an unchecked candidate
    leave(np.ones(live.size, dtype=bool))
    return out


def _em_lockstep(X: np.ndarray, jobs: list) -> list:
    """The _em_group of each (config, restarts) job advanced in lockstep, a
    list of its results per job. Each iteration makes one _kappa_newton call
    on the pieces every group yields (its fed components, then its
    candidates'), concatenated, and hands each group its slice: the solve is
    elementwise, so each value is the one a solve of the group alone
    returns."""
    groups = [_em_group(X, cfg, restarts) for cfg, restarts in jobs]
    asks, out = [next(g) for g in groups], [None] * len(groups)
    while running := [i for i, o in enumerate(out) if o is None]:
        r_bar, kappa, a, log_c = (np.concatenate([p for i in running for p in asks[i][f]]) for f in range(4))
        solved = _kappa_newton(r_bar, X.shape[1], KAPPA_CAP, kappa, a, log_c)
        ends = np.cumsum([sum(p.size for p in asks[i][0]) for i in running]).tolist()
        for i, lo, hi in zip(running, [0] + ends, ends):
            try:
                asks[i] = groups[i].send([v[lo:hi] for v in solved])
            except StopIteration as stop:
                out[i] = stop.value
    return out


def _em_blocks(cfgs, width: int):
    """The (config index, restarts) jobs of each block, in order: the
    restarts of the configs, in order, fill blocks of at most _EM_BLOCK
    elements at k * width each, and a restart larger than that has a block
    of its own. Planned as they are taken, so one block's jobs are held at a
    time whatever the restart counts."""
    block, used = [], 0
    for i, cfg in enumerate(cfgs):
        size, first = cfg.k * width, 0
        while first < cfg.restarts:
            if used + size > _EM_BLOCK and block:
                yield block
                block, used = [], 0
            stop = min(cfg.restarts, first + max(1, (_EM_BLOCK - used) // size))
            block.append((i, range(first, stop)))
            used += size * (stop - first)
            first = stop
    if block:
        yield block


def fit_em_many(data: SampleSet, cfgs) -> list:
    """fit_em for each config, all fitted in lockstep; each FitResult is bit
    for bit the one fit_em returns for its config.

    The restarts of the configs fill blocks of bounded size (_em_blocks),
    and each block advances in lockstep with one concentration solve per
    iteration for all its restarts.
    """
    X = data.points
    if X.shape[0] == 0:
        raise ValueError("cannot fit an empty sample")
    for cfg in cfgs:
        if cfg.k >= X.shape[0]:
            raise ValueError(f"need more observations than components ({cfg.k} >= {X.shape[0]})")

    best = [None] * len(cfgs)
    for block in _em_blocks(cfgs, sum(X.shape)):
        for (i, _), results in zip(block, _em_lockstep(X, [(cfgs[i], r) for i, r in block])):
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

    Eigenvalues below zero are truncated; if fewer than dim positive
    eigenvalues exist, the missing columns are zero and the result is
    flagged as padded.
    """
    d = dm.entries
    n = d.shape[0]
    if n < 2:
        raise ValueError(f"an embedding needs at least 2 points, got {n}")
    if not 1 <= dim < n:
        raise ValueError(f"dim must be in [1, {n - 1}], got {dim}")
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ (d ** 2) @ j
    evals, evecs = np.linalg.eigh(b)
    order = np.argsort(evals)[::-1]
    evals = evals[order][:dim]
    evecs = evecs[:, order][:, :dim]
    # Numerical-rank cutoff: rounding noise around zero must not masquerade
    # as a usable axis.
    cutoff = n * np.finfo(float).eps * max(float(evals[0]), 0.0)
    positive = evals > cutoff
    coords = np.zeros((n, dim))
    coords[:, positive] = evecs[:, positive] * np.sqrt(evals[positive])
    return MdsResult(coords=coords, eigenvalues=np.where(positive, evals, 0.0),
                     n_positive=int(positive.sum()))
