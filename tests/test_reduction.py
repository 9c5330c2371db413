"""Reduction: greedy merging, single linkage, PAM, and their oracles."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vmfgeom import (DistanceMatrix, FitConfig, Partition,
                     VmfMixture, VmfParams, fit_em, geodesic_distance,
                     greedy_reduce, hclust_single_linkage, kmedoids,
                     pairwise_matrix, partitional_reduce, sample_mixture)
from vmfgeom import reduction
from vmfgeom.experiments import _derived_seed, sim2_truth
from vmfgeom.geometry import _wl_matrix
from vmfgeom.reduction import ReductionTrace, TraceEvent, _argbest, _merge_group
from vmfgeom.rng import substream


def mst_deletion_partition(d: np.ndarray, target_k: int) -> np.ndarray:
    """Oracle: Prim's minimum spanning tree, drop the target_k - 1 heaviest
    edges, label connected components by smallest member.

    It matches single linkage only on matrices without ties: where equal
    edges compete, Prim's edge order is not the (link, smaller id, larger
    id) merge order (see test_tie_rule_beats_prim)."""
    n = d.shape[0]
    in_tree = [0]
    edges = []
    best_dist = d[0].copy()
    best_from = np.zeros(n, dtype=int)
    while len(in_tree) < n:
        cand = [(best_dist[j], best_from[j], j) for j in range(n) if j not in in_tree]
        w, i, j = min(cand)
        edges.append((w, i, j))
        in_tree.append(j)
        closer = d[j] < best_dist
        best_dist[closer] = d[j][closer]
        best_from[closer] = j
    edges.sort()
    keep = edges[:n - target_k]
    adj = {i: set() for i in range(n)}
    for _, i, j in keep:
        adj[i].add(j)
        adj[j].add(i)
    label = -np.ones(n, dtype=int)
    next_label = 0
    for start in range(n):
        if label[start] >= 0:
            continue
        stack = [start]
        while stack:
            u = stack.pop()
            if label[u] >= 0:
                continue
            label[u] = next_label
            stack.extend(adj[u])
        next_label += 1
    return label


def hclust_reference(d: np.ndarray, target_k: int) -> np.ndarray:
    """Oracle: the cubic single-linkage loop, scanning every pair of
    clusters for the smallest (link, smaller id, larger id) key."""
    n = d.shape[0]
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
    for label, members in enumerate(sorted(clusters)):  # by smallest member
        assignment[members] = label
    return assignment


def greedy_reference(m: VmfMixture, target_k: int):
    """Oracle: greedy merging on a live list, rebuilding the distance
    matrix after every merge (triu scan, then np.delete and np.pad)."""
    comps = list(m.components)
    weights = list(m.weights)
    dist = pairwise_matrix(comps).entries
    events = []
    while len(comps) > target_k:
        iu, ju = np.triu_indices(len(comps), k=1)
        flat = dist[iu, ju]
        hit = int(np.nonzero(flat == flat.min())[0][0])  # triu order is lexicographic
        i, j = int(iu[hit]), int(ju[hit])
        params, weight = _merge_group(comps, weights, (i, j))
        events.append(TraceEvent(merged=(i, j), result=params, weight=weight))
        for idx in (j, i):
            del comps[idx]
            del weights[idx]
        dist = np.delete(np.delete(dist, (i, j), axis=0), (i, j), axis=1)
        rest = np.reshape([c.mu for c in comps], (-1, m.d))
        new_row = _wl_matrix(params.mu[None], np.array([params.kappa]),
                             rest, np.array([c.kappa for c in comps]))[0]
        comps.append(params)
        weights.append(weight)
        dist = np.pad(dist, ((0, 1), (0, 1)))
        dist[-1, :-1] = new_row
        dist[:-1, -1] = new_row
    reduced = VmfMixture(components=tuple(comps), weights=np.array(weights))
    return reduced, ReductionTrace(events=tuple(events), method="greedy")


def kmedoids_reference(dm: DistanceMatrix, target_k: int, seed: int = 0,
                       max_iters: int = 200) -> np.ndarray:
    """Oracle: PAM scoring each BUILD and SWAP candidate with its own Python
    call, under kmedoids' tie rule and n * eps * cost swap threshold."""
    n = dm.n
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
        assignment[med] = label
    _, first, inverse = np.unique(assignment, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def partition_positions_reference(assignment) -> list:
    """Oracle: each cluster's trace positions, found by list.index on the
    live list (unmerged originals, then the results appended in order)."""
    n = len(assignment)
    live = list(range(n))
    out = []
    for label in range(max(assignment) + 1):
        members = [i for i in range(n) if assignment[i] == label]
        out.append(tuple(live.index(i) for i in members))
        live = [i for i in live if i not in members] + [n + label]
    return out


def assert_same_laws(got, want):
    assert got.kappa == want.kappa
    assert np.array_equal(got.mu, want.mu)


def assert_same_reduction(got, want):
    (got_m, got_t), (want_m, want_t) = got, want
    assert np.array_equal(got_m.weights, want_m.weights)
    for a, b in zip(got_m.components, want_m.components, strict=True):
        assert_same_laws(a, b)
    for a, b in zip(got_t.events, want_t.events, strict=True):
        assert a.merged == b.merged and all(type(p) is int for p in a.merged)
        assert a.weight == b.weight
        assert_same_laws(a.result, b.result)


@st.composite
def tie_matrices(draw):
    """Symmetric matrices with entries in {0, 0.5, 1, 1.5}: ties everywhere."""
    n = draw(st.integers(1, 15))
    upper = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]),
                          min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = upper
    return d + d.T


# Directions inside one orthant, so no merge meets antipodal laws.
_POOL_MUS = ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
             [0.6, 0.8, 0.0], [0.0, 0.6, 0.8], [0.8, 0.0, 0.6])


@st.composite
def duplicated_mixtures(draw):
    """n components drawn from at most n/2 distinct laws, so duplicates sit
    at WL distance 0 and equal pool geometry makes more ties."""
    n = draw(st.integers(2, 10))
    laws = draw(st.lists(st.builds(VmfParams, mu=st.sampled_from(_POOL_MUS),
                                   kappa=st.sampled_from([1.0, 4.0, 16.0])),
                         min_size=1, max_size=n // 2))
    picks = draw(st.lists(st.integers(0, len(laws) - 1), min_size=n, max_size=n))
    weights = np.array(draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=n, max_size=n)))
    return VmfMixture(components=tuple(laws[p] for p in picks), weights=weights / weights.sum())


def random_distance_matrix(rng, n):
    m = rng.uniform(0.1, 2.0, (n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return DistanceMatrix(entries=m)


def partition_cost(dm: DistanceMatrix, part: Partition) -> float:
    d = dm.entries
    total = 0.0
    for c in range(part.n_clusters):
        idx = np.nonzero(part.assignment == c)[0]
        total += min(float(d[np.ix_(idx, [m])].sum()) for m in idx)
    return total


def replay_trace(k_start, trace, original_weights):
    """Re-run the live-list semantics of the trace, checking invariants."""
    live = [float(w) for w in original_weights]
    count = k_start
    for event in trace.events:
        positions = sorted(event.merged)
        assert positions == sorted(set(positions))
        assert all(0 <= p < count for p in positions)
        merged_weight = sum(live[p] for p in positions)
        assert merged_weight == pytest.approx(event.weight, abs=1e-12)
        live = [w for i, w in enumerate(live) if i not in positions] + [event.weight]
        count -= len(positions) - 1
        assert len(live) == count
        assert sum(live) == pytest.approx(1.0, abs=1e-12)
    return count


def four_mode_mixture(extra_identical=False):
    comps = [VmfParams(mu=m, kappa=10.0) for m in
             ([1, 0], [0, 1], [-1, 0], [0, -1])]
    weights = [0.25, 0.25, 0.25, 0.25]
    if extra_identical:
        comps.append(VmfParams(mu=[0, 1], kappa=10.0))
        weights = [0.2] * 5
    return VmfMixture(components=tuple(comps), weights=np.array(weights))


class TestGreedyReduce:
    def test_identical_pair_merges_first(self):
        m = four_mode_mixture(extra_identical=True)
        reduced, trace = greedy_reduce(m, 4)
        first = trace.events[0]
        # components 1 and 4 coincide, so they merge first with summed weight
        assert set(first.merged) == {1, 4}
        assert first.weight == pytest.approx(0.4, abs=1e-12)
        assert reduced.k == 4
        assert first.result.mu == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_two_components_single_step(self):
        comps = (VmfParams(mu=[1, 0], kappa=1.0), VmfParams(mu=[0, 1], kappa=4.0))
        m = VmfMixture(components=comps, weights=[0.5, 0.5])
        reduced, trace = greedy_reduce(m, 1)
        assert reduced.k == 1
        assert len(trace.events) == 1
        assert reduced.components[0].kappa == pytest.approx(16.0 / 9.0, abs=1e-12)

    def test_tie_breaks_lexicographic(self):
        # Four components forming two pairs at the same within-pair distance:
        # the (0, x) pair must merge first.
        theta = 0.3
        comps = (VmfParams(mu=[1, 0], kappa=2.0),
                 VmfParams(mu=[math.cos(theta), math.sin(theta)], kappa=2.0),
                 VmfParams(mu=[-1, 0], kappa=2.0),
                 VmfParams(mu=[-math.cos(theta), -math.sin(theta)], kappa=2.0))
        m = VmfMixture(components=comps, weights=np.full(4, 0.25))
        _, trace = greedy_reduce(m, 3)
        assert tuple(trace.events[0].merged) == (0, 1)

    def test_mass_conserved_and_counts(self):
        rng = np.random.default_rng(1)
        comps = []
        for _ in range(8):
            v = rng.standard_normal(3)
            comps.append(VmfParams(mu=v / np.linalg.norm(v),
                                   kappa=math.exp(rng.uniform(0, 3))))
        w = rng.dirichlet(np.ones(8))
        m = VmfMixture(components=tuple(comps), weights=w)
        reduced, trace = greedy_reduce(m, 3)
        assert reduced.k == 3
        assert reduced.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert replay_trace(8, trace, m.weights) == 3

    def test_untouched_components_unchanged(self):
        m = four_mode_mixture(extra_identical=True)
        reduced, _ = greedy_reduce(m, 4)
        # components 0, 2, 3 were never merged and must survive bit-identical
        survivors = [tuple(c.mu) for c in reduced.components]
        for idx in (0, 2, 3):
            assert tuple(m.components[idx].mu) in survivors

    def test_four_mode_recovery_from_overfit(self):
        # Fit K=10 to a four-mode circular sample, reduce greedily to 4:
        # survivors must sit within geodesic 0.15 of distinct true means.
        truth = sim2_truth()
        data = sample_mixture(truth, 400, seed=17)
        fit = fit_em(data, FitConfig(k=10, restarts=10, seed=23))
        reduced, trace = greedy_reduce(fit.mixture, 4)
        true_mus = [np.array(v, dtype=float) for v in
                    ([1, 0], [0, 1], [-1, 0], [0, -1])]
        taken = set()
        for comp in reduced.components:
            dists = [geodesic_distance(comp.mu, t) for t in true_mus]
            best = int(np.argmin(dists))
            assert dists[best] < 0.15
            assert best not in taken
            taken.add(best)

    def test_target_out_of_range(self):
        m = four_mode_mixture()
        for bad in (0, 4, 5):
            with pytest.raises(ValueError):
                greedy_reduce(m, bad)

    @pytest.mark.slow
    @settings(max_examples=300)
    @given(duplicated_mixtures())
    def test_matches_reference_under_ties(self, m):
        for k in range(1, m.k):
            assert_same_reduction(greedy_reduce(m, k), greedy_reference(m, k))

    def test_first_merges_all_intra_mode(self):
        # Ten components jittered around four well-separated modes: replaying
        # the trace, each of the first six merges must combine components
        # whose origins share one mode.
        rng = np.random.default_rng(2)
        centers = [0.0, math.pi / 2, math.pi, -math.pi / 2]
        per_mode = [3, 3, 2, 2]
        comps, mode_of = [], []
        for mode, (center, count) in enumerate(zip(centers, per_mode)):
            for _ in range(count):
                theta = center + rng.uniform(-0.1, 0.1)
                comps.append(VmfParams(mu=[math.cos(theta), math.sin(theta)],
                                       kappa=rng.uniform(8.0, 12.0)))
                mode_of.append(mode)
        m = VmfMixture(components=tuple(comps), weights=rng.dirichlet(np.ones(10)))
        _, trace = greedy_reduce(m, 4)
        live = [{i} for i in range(10)]
        for event in trace.events:
            merged_origins = set()
            for pos in event.merged:
                merged_origins |= live[pos]
            assert len({mode_of[i] for i in merged_origins}) == 1
            live = [s for i, s in enumerate(live) if i not in event.merged]
            live.append(merged_origins)


class TestSingleLinkage:
    def test_all_singletons_and_one_cluster(self):
        dm = random_distance_matrix(np.random.default_rng(0), 6)
        singles = hclust_single_linkage(dm, 6)
        assert singles.n_clusters == 6
        assert np.array_equal(singles.assignment, np.arange(6))
        one = hclust_single_linkage(dm, 1)
        assert one.n_clusters == 1

    def test_line_with_gap(self):
        pos = np.array([0.0, 1.0, 2.0, 10.0, 11.0, 12.0])
        d = np.abs(pos[:, None] - pos[None, :])
        part = hclust_single_linkage(DistanceMatrix(entries=d), 2)
        assert np.array_equal(part.assignment, [0, 0, 0, 1, 1, 1])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_mst_deletion(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        dm = random_distance_matrix(rng, n)
        k = int(rng.integers(2, n))
        got = hclust_single_linkage(dm, k).assignment
        want = mst_deletion_partition(dm.entries, k)
        # same partition up to relabeling
        mapping = {}
        for a, b in zip(got, want):
            assert mapping.setdefault(a, b) == b

    @pytest.mark.slow
    @settings(max_examples=300)
    @given(tie_matrices())
    def test_matches_reference_under_ties(self, d):
        dm = DistanceMatrix(entries=d)
        for k in range(1, dm.n + 1):
            got = hclust_single_linkage(dm, k).assignment
            assert got.tolist() == hclust_reference(d, k).tolist()

    def test_tie_rule_beats_prim(self):
        # d(0,3) = d(1,2) = d(2,3) = 1, all else 2. Merging by (link, smaller
        # id, larger id) joins {0,3}, then {0,3} with 2 (key (1, 0, 2) before
        # (1, 1, 2)); Prim's tree cut at its heaviest edge keeps 1-2 instead.
        d = np.full((4, 4), 2.0)
        np.fill_diagonal(d, 0.0)
        for i, j in ((0, 3), (1, 2), (2, 3)):
            d[i, j] = d[j, i] = 1.0
        got = hclust_single_linkage(DistanceMatrix(entries=d), 2).assignment
        assert got.tolist() == [0, 1, 0, 0]
        assert hclust_reference(d, 2).tolist() == [0, 1, 0, 0]
        assert mst_deletion_partition(d, 2).tolist() == [0, 1, 1, 0]

    def test_target_out_of_range(self):
        dm = random_distance_matrix(np.random.default_rng(3), 5)
        for bad in (0, 6):
            with pytest.raises(ValueError):
                hclust_single_linkage(dm, bad)


class TestKmedoids:
    def test_every_point_its_own_medoid(self):
        dm = random_distance_matrix(np.random.default_rng(5), 7)
        part = kmedoids(dm, 7, seed=1)
        assert part.n_clusters == 7
        assert partition_cost(dm, part) == 0.0

    def test_two_separated_pairs(self):
        d = np.array([
            [0.0, 0.1, 5.0, 5.1],
            [0.1, 0.0, 5.2, 5.0],
            [5.0, 5.2, 0.0, 0.2],
            [5.1, 5.0, 0.2, 0.0],
        ])
        part = kmedoids(DistanceMatrix(entries=d), 2, seed=0)
        assert part.assignment[0] == part.assignment[1]
        assert part.assignment[2] == part.assignment[3]
        assert part.assignment[0] != part.assignment[2]
        assert partition_cost(DistanceMatrix(entries=d), part) == pytest.approx(0.3)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_matches_exhaustive_search(self, n):
        rng = np.random.default_rng(n)
        dm = random_distance_matrix(rng, n)
        k = 3
        got = partition_cost(dm, kmedoids(dm, k, seed=n))
        want = min(float(dm.entries[:, list(meds)].min(axis=1).sum())
                   for meds in itertools.combinations(range(n), k))
        assert got == pytest.approx(want, abs=1e-12)

    def test_local_optimum_quality_battery(self):
        # PAM guarantees a swap-local optimum, not the global one. On random
        # n=8 instances it attains the global optimum in the large majority
        # of cases; seeds 2 and 12 below are genuine single-swap traps.
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            dm = random_distance_matrix(rng, 8)
            got = partition_cost(dm, kmedoids(dm, 3, seed=seed))
            want = min(float(dm.entries[:, list(meds)].min(axis=1).sum())
                       for meds in itertools.combinations(range(8), 3))
            assert got >= want - 1e-12
            hits += abs(got - want) <= 1e-12
        assert hits >= 16

    def test_swap_never_increases_cost(self, monkeypatch):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            dm = random_distance_matrix(rng, 10)
            full = partition_cost(dm, kmedoids(dm, 3, seed=seed))
            with monkeypatch.context() as patch:
                patch.setattr(reduction, "MAX_SWAPS", 0)
                build_only = partition_cost(dm, kmedoids(dm, 3, seed=seed))
            assert full <= build_only + 1e-12

    @pytest.mark.slow
    @settings(max_examples=300)
    @given(tie_matrices(), st.integers(0, 3))
    def test_matches_reference_under_ties(self, d, seed):
        dm = DistanceMatrix(entries=d)
        for k in range(1, dm.n + 1):
            for max_iters in (0, 1, 200):
                # A hypothesis test cannot take the function-scoped monkeypatch.
                with mock.patch.object(reduction, "MAX_SWAPS", max_iters):
                    got = kmedoids(dm, k, seed=seed).assignment
                want = kmedoids_reference(dm, k, seed=seed, max_iters=max_iters)
                assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference_on_random_matrices(self, seed):
        rng = np.random.default_rng(200 + seed)
        dm = random_distance_matrix(rng, int(rng.integers(2, 40)))
        for k in range(1, min(dm.n, 6) + 1):
            got = kmedoids(dm, k, seed=seed).assignment
            assert got.tolist() == kmedoids_reference(dm, k, seed=seed).tolist()

    def test_deterministic(self):
        dm = random_distance_matrix(np.random.default_rng(7), 9)
        a = kmedoids(dm, 3, seed=4)
        b = kmedoids(dm, 3, seed=4)
        assert np.array_equal(a.assignment, b.assignment)

    def test_swap_ignores_rounding_noise(self):
        # sim2 seed 3: the K = 10 fit, reduced to K = 4. Two WL matrices of
        # these laws that differ only by rounding (at most 8.9e-16, in 28
        # cells) must give one partition. Acting on any cost decrease, SWAP
        # traded medoid 8 for 7 (members of one cluster) on the second
        # matrix for a 4.4e-16 gain and reached another local optimum.
        fit = [([0.040046280159406145, -0.9991978259811188], 9.477428569684571),
               ([-0.167335225504034, 0.9859000569558327], 24.457831197242697),
               ([0.9960896093330722, 0.08834868521199218], 22.863453749150136),
               ([0.922953727738062, -0.384910920154801], 155.50438259120583),
               ([-0.993969407651986, -0.10965772499901719], 654.5482657137851),
               ([-0.9849058157426538, 0.17309111507035135], 36.62530494417851),
               ([-0.921202882319387, -0.3890825742775611], 118.41912126283842),
               ([-0.6371147218517207, 0.7707689869213761], 2613.8731006013945),
               ([-0.8424584785072348, 0.538761275511961], 592.7464616587013),
               ([0.3219108481717717, 0.9467699857036717], 10.589298331662086)]
        laws = [VmfParams(mu=mu, kappa=kappa) for mu, kappa in fit]
        exact = pairwise_matrix(laws).entries
        # The same closed form with normalised, per-coordinate cosines.
        mus = np.array([mu for mu, _ in fit])
        s = 1.0 / np.sqrt([kappa for _, kappa in fit])
        gram = np.multiply.outer(mus[:, 0], mus[:, 0]) + np.multiply.outer(mus[:, 1], mus[:, 1])
        norm = np.sqrt(np.diag(gram))
        ang = np.arccos(np.clip(gram / np.outer(norm, norm), -1.0, 1.0))
        other = np.sqrt(ang * ang + np.subtract.outer(s, s) ** 2)
        other = np.triu(other, 1) + np.triu(other, 1).T
        assert 0.0 < np.abs(other - exact).max() <= 8.9e-16

        seed = _derived_seed(3, "sim2-reduce", "kmedoids", 4)
        want = [0, 1, 0, 0, 2, 2, 2, 3, 3, 1]
        for m in (exact, other):
            assert kmedoids(DistanceMatrix(entries=m), 4, seed=seed).assignment.tolist() == want


class TestPartitionalReduce:
    def test_k_minus_one_matches_greedy_first_merge(self):
        rng = np.random.default_rng(9)
        comps = []
        for _ in range(6):
            v = rng.standard_normal(3)
            comps.append(VmfParams(mu=v / np.linalg.norm(v),
                                   kappa=math.exp(rng.uniform(0, 2))))
        m = VmfMixture(components=tuple(comps), weights=rng.dirichlet(np.ones(6)))
        via_hclust, _ = partitional_reduce(m, 5, method="hclust")
        via_greedy, trace = greedy_reduce(m, 5)
        merged_pair = set(trace.events[0].merged)
        # the single-linkage first cut merges exactly the globally closest pair
        kappas_h = sorted(c.kappa for c in via_hclust.components)
        kappas_g = sorted(c.kappa for c in via_greedy.components)
        assert kappas_h == pytest.approx(kappas_g, rel=1e-12)
        assert len(merged_pair) == 2

    def test_identical_components_collapse(self):
        p = VmfParams(mu=[0.6, 0.8], kappa=3.0)
        m = VmfMixture(components=(p, p, p, p), weights=[0.1, 0.2, 0.3, 0.4])
        for method in ("hclust", "kmedoids"):
            reduced, _ = partitional_reduce(m, 2, method=method)
            assert reduced.k == 2
            assert reduced.weights.sum() == pytest.approx(1.0, abs=1e-12)
            for c in reduced.components:
                assert c.mu == pytest.approx(p.mu, abs=1e-12)
                assert c.kappa == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("method", ["hclust", "kmedoids"])
    def test_four_mode_recovery(self, method):
        truth = sim2_truth()
        data = sample_mixture(truth, 400, seed=31)
        fit = fit_em(data, FitConfig(k=10, restarts=10, seed=37))
        reduced, trace = partitional_reduce(fit.mixture, 4, method=method, seed=3)
        true_mus = [np.array(v, dtype=float) for v in
                    ([1, 0], [0, 1], [-1, 0], [0, -1])]
        hits = 0
        for comp in reduced.components:
            if min(geodesic_distance(comp.mu, t) for t in true_mus) < 0.15:
                hits += 1
        assert hits >= 3  # kmedoids may park one cluster on a straggler
        assert replay_trace(10, trace, fit.mixture.weights) == 4

    def test_mass_conservation_and_trace(self):
        m = four_mode_mixture(extra_identical=True)
        reduced, trace = partitional_reduce(m, 3, method="hclust")
        assert reduced.k == 3
        assert reduced.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert replay_trace(5, trace, m.weights) == 3

    @given(duplicated_mixtures(), st.sampled_from(["hclust", "kmedoids"]))
    def test_trace_positions_match_reference(self, m, method):
        dm = pairwise_matrix(m.components)
        for k in range(1, m.k):
            part = (hclust_single_linkage(dm, k) if method == "hclust"
                    else kmedoids(dm, k, seed=k))
            _, trace = partitional_reduce(m, k, method=method, seed=k)
            want = partition_positions_reference(part.assignment.tolist())
            assert [e.merged for e in trace.events] == want

    def test_bad_inputs(self):
        m = four_mode_mixture()
        with pytest.raises(ValueError):
            partitional_reduce(m, 4, method="hclust")
        with pytest.raises(ValueError):
            partitional_reduce(m, 2, method="centroid")


class TestPartitionType:
    def test_contiguity_enforced(self):
        with pytest.raises(ValueError):
            Partition(assignment=np.array([0, 2, 2]))
        part = Partition(assignment=np.array([0, 1, 1, 0]))
        assert part.n_clusters == 2
