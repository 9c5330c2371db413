"""Reduction: greedy merging, single linkage, PAM, and their oracles."""

import itertools
import math

import numpy as np
import pytest

from vmfgeom import (DistanceMatrix, FitConfig, Partition,
                     VmfMixture, VmfParams, fit_em, geodesic_distance,
                     greedy_reduce, hclust_single_linkage, kmedoids,
                     pairwise_matrix, partitional_reduce, sample_mixture)
from vmfgeom.experiments import _derived_seed, sim2_truth


def mst_deletion_partition(d: np.ndarray, target_k: int) -> np.ndarray:
    """Oracle: Prim's minimum spanning tree, drop the target_k - 1 heaviest
    edges, label connected components by smallest member."""
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

    def test_swap_never_increases_cost(self):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            dm = random_distance_matrix(rng, 10)
            build_only = partition_cost(dm, kmedoids(dm, 3, seed=seed, max_iters=0))
            full = partition_cost(dm, kmedoids(dm, 3, seed=seed))
            assert full <= build_only + 1e-12

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
