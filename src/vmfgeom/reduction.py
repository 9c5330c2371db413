"""Mixture reduction: greedy pair merging and one-shot partitional methods.

Both families summarize merged groups by their WL barycenter under the
group's renormalized weights and assign the group's total weight to the
result, so mixture mass is conserved at every step. WL distances come from
geometry's array kernel: the first matrix through pairwise_matrix (and so
under its size cap), and greedy's new row after each merge as one law
against the live components.

Trace semantics: each event lists positions into the live component list as
it stood immediately before that event; the merged components are removed
and the replacement is appended at the end. Replaying events therefore
reconstructs the full provenance of every output component.
"""

from dataclasses import dataclass

import numpy as np

from .barycenter import BarycenterConfig, barycenter
from .core import VmfMixture, VmfParams
from .geometry import AntipodalMeansError, DistanceMatrix, _wl_matrix, pairwise_matrix
from .rng import substream


@dataclass(frozen=True)
class TraceEvent:
    merged: tuple
    result: VmfParams
    weight: float


@dataclass(frozen=True)
class ReductionTrace:
    events: tuple
    method: str

    def __post_init__(self):
        if self.method not in ("greedy", "hclust", "kmedoids"):
            raise ValueError(f"unknown method {self.method!r}")
        object.__setattr__(self, "events", tuple(self.events))


@dataclass(frozen=True)
class Partition:
    """Cluster assignment over components, labels contiguous 0..K'-1."""

    assignment: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("assignment must be a nonempty vector")
        labels = np.unique(a)
        if labels[0] != 0 or labels[-1] != labels.size - 1:
            raise ValueError("cluster labels must be contiguous 0..K'-1")
        a.flags.writeable = False
        object.__setattr__(self, "assignment", a)

    @property
    def n_clusters(self) -> int:
        return int(self.assignment.max()) + 1


def _merge_group(comps, weights, indices, cfg: BarycenterConfig):
    """Barycenter of the components at the given indices under their
    renormalized weights; returns (params, total weight)."""
    group = [comps[i] for i in indices]
    w = np.array([weights[i] for i in indices])
    total = float(w.sum())
    if len(group) == 1:
        return group[0], total
    try:
        res = barycenter(group, w / total, cfg)
    except (AntipodalMeansError, ValueError) as err:
        raise AntipodalMeansError(
            f"cannot merge components {tuple(indices)}: {err}") from err
    return res.params, total


def greedy_reduce(m: VmfMixture, target_k: int, cfg: BarycenterConfig = BarycenterConfig()):
    """Iteratively merge the WL-closest pair until target_k components remain.

    After each merge only the distances involving the new component are
    recomputed. Exact ties on the minimal distance resolve to the smallest
    (i, j) pair in lexicographic order.
    """
    if not 1 <= target_k < m.k:
        raise ValueError(f"target_k must be in [1, {m.k - 1}], got {target_k}")
    comps = list(m.components)
    weights = list(m.weights)
    dist = pairwise_matrix(comps).entries  # read-only; each merge rebuilds it

    events = []
    while len(comps) > target_k:
        n = len(comps)
        iu, ju = np.triu_indices(n, k=1)
        flat = dist[iu, ju]
        best = float(flat.min())
        hit = int(np.nonzero(flat == best)[0][0])  # triu order is lexicographic
        i, j = int(iu[hit]), int(ju[hit])

        params, weight = _merge_group(comps, weights, (i, j), cfg)
        events.append(TraceEvent(merged=(i, j), result=params, weight=weight))

        for idx in (j, i):  # descending, so positions stay valid
            del comps[idx]
            del weights[idx]
        dist = np.delete(np.delete(dist, (i, j), axis=0), (i, j), axis=1)
        rest = np.reshape([c.mu for c in comps], (-1, m.d))  # (0, d) when nothing is left
        new_row = _wl_matrix(params.mu[None], np.array([params.kappa]),
                             rest, np.array([c.kappa for c in comps]))[0]
        comps.append(params)
        weights.append(weight)
        dist = np.pad(dist, ((0, 1), (0, 1)))
        dist[-1, :-1] = new_row
        dist[:-1, -1] = new_row

    reduced = VmfMixture(components=tuple(comps), weights=np.array(weights))
    return reduced, ReductionTrace(events=tuple(events), method="greedy")


def hclust_single_linkage(dm: DistanceMatrix, target_k: int) -> Partition:
    """Cut the single-linkage dendrogram of the distance matrix at target_k
    clusters. Ties on the minimal linkage resolve to the lexicographically
    smallest pair of cluster ids (a cluster's id is its smallest member)."""
    n = dm.n
    if not 1 <= target_k <= n:
        raise ValueError(f"target_k must be in [1, {n}], got {target_k}")
    d = dm.entries
    clusters = [[i] for i in range(n)]
    while len(clusters) > target_k:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                link = min(d[i, j] for i in clusters[a] for j in clusters[b])
                key = (link, clusters[a][0], clusters[b][0])
                if best is None or key < best[0]:
                    best = (key, a, b)
        _, a, b = best
        clusters[a] = sorted(clusters[a] + clusters[b])
        del clusters[b]
    assignment = np.empty(n, dtype=np.int64)
    for label, members in enumerate(sorted(clusters, key=lambda c: c[0])):
        assignment[members] = label
    return Partition(assignment=_relabel_by_first_appearance(assignment))


def _relabel_by_first_appearance(assignment: np.ndarray) -> np.ndarray:
    mapping = {}
    out = np.empty_like(assignment)
    for idx, lab in enumerate(assignment):
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[idx] = mapping[lab]
    return out


def _argbest(values: np.ndarray, priority: np.ndarray) -> int:
    """Index of the minimal value; exact ties go to the lowest priority rank."""
    best = values.min()
    ties = np.nonzero(values == best)[0]
    return int(ties[np.argmin(priority[ties])])


def kmedoids(dm: DistanceMatrix, target_k: int, seed: int = 0, max_iters: int = 200) -> Partition:
    """Partition around medoids from a distance matrix (PAM build + swap).

    BUILD greedily seeds medoids by largest cost decrease; SWAP repeatedly
    applies the single best improving (medoid, non-medoid) exchange. A swap
    counts as improving only when it lowers the cost by more than n * eps *
    cost, the rounding bound of the cost's n-term sum of nonnegative
    distances: a smaller decrease may be a tie in exact arithmetic, and
    acting on it would make the partition depend on the last bits of the
    matrix. The seed breaks exact ties only, so runs on tie-free matrices
    are seed-independent. Cost never increases across swap iterations.
    """
    n = dm.n
    if not 1 <= target_k <= n:
        raise ValueError(f"target_k must be in [1, {n}], got {target_k}")
    d = dm.entries
    priority = substream(seed, "kmedoids-ties").permutation(n)

    medoids = [_argbest(d.sum(axis=0), priority)]
    nearest = d[:, medoids[0]].copy()
    while len(medoids) < target_k:
        gains = np.full(n, np.inf)
        for c in range(n):
            if c in medoids:
                continue
            gains[c] = -float(np.maximum(0.0, nearest - d[:, c]).sum())
        c = _argbest(gains, priority)
        medoids.append(c)
        nearest = np.minimum(nearest, d[:, c])

    def cost_of(meds) -> float:
        return float(d[:, meds].min(axis=1).sum())

    current = cost_of(medoids)
    for _ in range(max_iters):
        threshold = current - n * np.finfo(float).eps * current
        best_swap = None
        for pos in range(len(medoids)):
            for h in range(n):
                if h in medoids:
                    continue
                trial = list(medoids)
                trial[pos] = h
                c = cost_of(trial)
                if c < threshold and (best_swap is None or c < best_swap[0]):
                    best_swap = (c, pos, h)
        if best_swap is None:
            break
        current, pos, h = best_swap
        medoids[pos] = h

    assignment = np.argmin(d[:, medoids], axis=1)
    for label, med in enumerate(medoids):
        assignment[med] = label  # a medoid belongs to its own cluster
    return Partition(assignment=_relabel_by_first_appearance(assignment))


def partitional_reduce(m: VmfMixture, target_k: int, method: str = "hclust",
                       cfg: BarycenterConfig = BarycenterConfig(), seed: int = 0):
    """Reduce in one pass: cluster the components on their WL distances
    (weights ignored during clustering), then replace each cluster by its
    barycenter carrying the cluster's total weight."""
    if not 1 <= target_k < m.k:
        raise ValueError(f"target_k must be in [1, {m.k - 1}], got {target_k}")
    if method not in ("hclust", "kmedoids"):
        raise ValueError(f"unknown method {method!r}")
    n = m.k
    dm = pairwise_matrix(m.components)
    if method == "hclust":
        part = hclust_single_linkage(dm, target_k)
    else:
        part = kmedoids(dm, target_k, seed=seed)

    comps = list(m.components)
    weights = list(m.weights)
    events = []
    new_comps = []
    new_weights = []
    live = list(range(n))
    for label in range(part.n_clusters):
        members = [i for i in range(n) if part.assignment[i] == label]
        params, weight = _merge_group(comps, weights, members, cfg)
        positions = tuple(live.index(i) for i in members)
        events.append(TraceEvent(merged=positions, result=params, weight=weight))
        live = [i for i in live if i not in members] + [n + label]
        new_comps.append(params)
        new_weights.append(weight)

    reduced = VmfMixture(components=tuple(new_comps), weights=np.array(new_weights))
    return reduced, ReductionTrace(events=tuple(events), method=method)
