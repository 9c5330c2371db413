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

from .barycenter import barycenter
from .core import VmfMixture, VmfParams
from .geometry import AntipodalMeansError, DistanceMatrix, _wl_matrix, pairwise_matrix
from .rng import substream

# PAM stops after MAX_SWAPS swaps even while a swap still improves its cost.
MAX_SWAPS = 200


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


def _merge_group(comps, weights, indices):
    """Barycenter of the components at the given indices under their
    renormalized weights; returns (params, total weight)."""
    group = [comps[i] for i in indices]
    w = np.array([weights[i] for i in indices])
    total = float(w.sum())
    if len(group) == 1:
        return group[0], total
    try:
        res = barycenter(group, w / total)
    except (AntipodalMeansError, ValueError) as err:
        raise AntipodalMeansError(
            f"cannot merge components {tuple(indices)}: {err}") from err
    return res.params, total


def greedy_reduce(m: VmfMixture, target_k: int):
    """Iteratively merge the WL-closest pair until target_k components remain.

    One n x n buffer holds the distances (inf on the diagonal and for merged
    slots), a vector each row's nearest one. A merge puts the new law in its
    pair's first slot, computes that row and rescans only the rows whose
    nearest was in the pair. Slots rank by birth (original index, then
    n + step), which is live-list order. Exact ties on the minimal distance
    go to the lexicographically smallest (i, j) pair of live positions.
    """
    if not 1 <= target_k < m.k:
        raise ValueError(f"target_k must be in [1, {m.k - 1}], got {target_k}")
    n = m.k
    comps = list(m.components)
    weights = np.array(m.weights)
    mus = np.array([c.mu for c in comps])
    kappas = np.array([c.kappa for c in comps])
    dist = np.array(pairwise_matrix(comps).entries)
    np.fill_diagonal(dist, np.inf)
    near = dist.min(axis=1)
    live = np.ones(n, dtype=bool)
    birth = np.arange(n)

    events = []
    for step in range(n - target_k):
        i = _argbest(near, birth)
        j = _argbest(dist[i], birth)  # so i precedes j in the live list
        params, weight = _merge_group(comps, weights, (i, j))
        merged = tuple(int(np.count_nonzero(live & (birth < birth[s]))) for s in (i, j))
        events.append(TraceEvent(merged=merged, result=params, weight=weight))

        stale = live & ((dist[:, i] == near) | (dist[:, j] == near))  # includes i and j
        live[j] = False
        dist[j] = dist[:, j] = np.inf
        comps[i], weights[i], mus[i], kappas[i] = params, weight, params.mu, params.kappa
        birth[i] = n + step
        # The live list without i: a BLAS product may round a row differently in another shape.
        others = np.flatnonzero(live)[np.argsort(birth[live])][:-1]
        dist[i, others] = dist[others, i] = _wl_matrix(
            params.mu[None], np.array([params.kappa]), mus[others], kappas[others])[0]
        near = np.minimum(near, dist[i])
        near[stale] = dist[stale].min(axis=1)

    order = np.flatnonzero(live)[np.argsort(birth[live])]
    reduced = VmfMixture(components=tuple(comps[s] for s in order), weights=weights[order])
    return reduced, ReductionTrace(events=tuple(events), method="greedy")


def hclust_single_linkage(dm: DistanceMatrix, target_k: int) -> Partition:
    """Cut the single-linkage dendrogram of the distance matrix at target_k
    clusters. Ties on the minimal linkage resolve to the lexicographically
    smallest pair of cluster ids (a cluster's id is its smallest member), as
    np.argmin takes the first minimum. Merging b into a takes the elementwise
    min of their rows of one n x n buffer (the Lance-Williams update), which
    leaves every other row's nearest linkage as it was: O(n^2) in all.
    """
    n = dm.n
    if not 1 <= target_k <= n:
        raise ValueError(f"target_k must be in [1, {n}], got {target_k}")
    link = np.array(dm.entries)
    np.fill_diagonal(link, np.inf)
    near = link.min(axis=1)
    labels = np.arange(n)
    for _ in range(n - target_k):
        a = int(np.argmin(near))
        b = int(np.argmin(link[a]))
        link[a] = link[:, a] = np.minimum(link[a], link[b])
        link[b] = link[:, b] = link[a, a] = near[b] = np.inf
        near[a] = link[a].min()
        labels[labels == b] = a
    return Partition(assignment=_relabel_by_first_appearance(labels))


def _relabel_by_first_appearance(assignment: np.ndarray) -> np.ndarray:
    _, first, inverse = np.unique(assignment, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _argbest(values: np.ndarray, priority: np.ndarray) -> int:
    """Index of the minimal value; exact ties go to the lowest priority rank."""
    best = values.min()
    ties = np.nonzero(values == best)[0]
    return int(ties[np.argmin(priority[ties])])


def kmedoids(dm: DistanceMatrix, target_k: int, seed: int = 0) -> Partition:
    """Partition around medoids from a distance matrix (PAM build + swap).

    BUILD greedily seeds medoids by largest cost decrease; SWAP repeatedly
    applies the single best improving (medoid, non-medoid) exchange. A swap
    counts as improving only when it lowers the cost by more than n * eps *
    cost, the rounding bound of the cost's n-term sum of nonnegative
    distances: a smaller decrease may be a tie in exact arithmetic, and
    acting on it would make the partition depend on the last bits of the
    matrix. The seed breaks exact ties only, so runs on tie-free matrices
    are seed-independent. Cost never increases across swap iterations.
    Each BUILD step and each SWAP medoid position scores all candidates as
    the row sums of one n x n array, as d is exactly symmetric.
    """
    n = dm.n
    if not 1 <= target_k <= n:
        raise ValueError(f"target_k must be in [1, {n}], got {target_k}")
    d = dm.entries
    priority = substream(seed, "kmedoids-ties").permutation(n)

    medoids = [_argbest(d.sum(axis=0), priority)]
    nearest = d[:, medoids[0]].copy()
    while len(medoids) < target_k:
        # Row c is the cost decrease of adding candidate c.
        gains = -np.maximum(0.0, nearest - d).sum(axis=1)
        gains[medoids] = np.inf
        c = _argbest(gains, priority)
        medoids.append(c)
        nearest = np.minimum(nearest, d[:, c])

    current = float(nearest.sum())
    for _ in range(MAX_SWAPS):
        threshold = current - n * np.finfo(float).eps * current
        best_swap = None
        for pos in range(len(medoids)):
            # Row h is the cost with h in place of medoids[pos].
            others = d[:, medoids[:pos] + medoids[pos + 1:]].min(axis=1, initial=np.inf)
            costs = np.minimum(d, others).sum(axis=1)
            costs[medoids] = np.inf
            h = int(np.argmin(costs))  # the first minimum, as a scan in h order keeps
            if costs[h] < threshold and (best_swap is None or costs[h] < best_swap[0]):
                best_swap = (float(costs[h]), pos, h)
        if best_swap is None:
            break
        current, pos, h = best_swap
        medoids[pos] = h

    assignment = np.argmin(d[:, medoids], axis=1)
    for label, med in enumerate(medoids):
        assignment[med] = label  # a medoid belongs to its own cluster
    return Partition(assignment=_relabel_by_first_appearance(assignment))


def partitional_reduce(m: VmfMixture, target_k: int, method: str = "hclust", seed: int = 0):
    """Reduce in one pass: cluster the components on their WL distances
    (weights ignored during clustering), then replace each cluster by its
    barycenter carrying the cluster's total weight."""
    if not 1 <= target_k < m.k:
        raise ValueError(f"target_k must be in [1, {m.k - 1}], got {target_k}")
    if method not in ("hclust", "kmedoids"):
        raise ValueError(f"unknown method {method!r}")
    dm = pairwise_matrix(m.components)
    if method == "hclust":
        part = hclust_single_linkage(dm, target_k)
    else:
        part = kmedoids(dm, target_k, seed=seed)

    a = part.assignment
    events = []
    for label in range(part.n_clusters):
        members = np.flatnonzero(a == label).tolist()
        params, weight = _merge_group(m.components, m.weights, members)
        # The live list is the unmerged originals in order, then earlier results.
        positions = tuple(np.flatnonzero(a[a >= label] == label).tolist())
        events.append(TraceEvent(merged=positions, result=params, weight=weight))

    reduced = VmfMixture(components=tuple(e.result for e in events),
                         weights=np.array([e.weight for e in events]))
    return reduced, ReductionTrace(events=tuple(events), method=method)
