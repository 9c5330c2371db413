"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see every line. Criterion 8
encodes a model-selection outcome that the implemented pipeline does not
reach under these exact parameters; it is asserted at its stated thresholds
anyway and is expected to fail (see the README's known-limitations notes).
"""

import itertools
import math
import time

import numpy as np
import pytest

from vmfgeom import (VmfMixture, VmfParams,
                     barycenter, exp_map, geodesic_distance, greedy_reduce,
                     hclust_single_linkage, kmedoids, log_map,
                     log_normalizing_constant, optimal_kappa,
                     partitional_reduce, sample, wl_distance, wl_interpolate,
                     TangentVector)
from vmfgeom.experiments import run_sim1, run_sim2

from test_reduction import (mst_deletion_partition, partition_cost,
                            random_distance_matrix, replay_trace)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {number:2d}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}): {detail}"


def random_unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_law(rng, d):
    return VmfParams(mu=random_unit(rng, d),
                     kappa=math.exp(rng.uniform(math.log(0.05), math.log(100.0))))


def test_criterion_01_metric_axioms():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    detail = ""
    for d in (2, 3, 10, 768):
        for _ in range(1000):
            p, q, r = (random_law(rng, d) for _ in range(3))
            if not (wl_distance(p, q) >= 0.0):
                ok, detail = False, f"negativity at d={d}"
            if wl_distance(p, q) != wl_distance(q, p):
                ok, detail = False, f"asymmetry at d={d}"
            if wl_distance(p, r) > wl_distance(p, q) + wl_distance(q, r) + 1e-9:
                ok, detail = False, f"triangle violation at d={d}"
        probe = random_law(rng, d)
        if wl_distance(probe, probe) > 1e-7:
            ok, detail = False, f"self-distance {wl_distance(probe, probe)} at d={d}"
        other = random_law(rng, d)
        if wl_distance(probe, other) < 1e-7 and (probe.kappa != other.kappa):
            ok, detail = False, "distinct laws at zero distance"
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        ok, detail = False, f"runtime {elapsed:.1f}s over 10s budget"
    report(1, "metric axioms on 4x1000 random triples", ok,
           detail or f"{elapsed:.1f}s")


def test_criterion_02_closed_form_oracles():
    p = VmfParams(mu=[1, 0, 0], kappa=1.0)
    q = VmfParams(mu=[0, 1, 0], kappa=4.0)
    # Oracle: direct high-precision evaluation of sqrt((pi/2)^2 + 2*(1/2)^2).
    want_wl = math.sqrt((math.pi / 2.0) ** 2 + 0.5)
    ok_wl = abs(wl_distance(p, q) - want_wl) < 1e-5

    ok_kappa = abs(optimal_kappa([1.0, 4.0], [0.5, 0.5]) - 16.0 / 9.0) < 1e-12

    want_c3 = 2.0 / (4.0 * math.pi * math.sinh(2.0))
    got_c3 = math.exp(log_normalizing_constant(3, 2.0))
    ok_c3 = abs(got_c3 - want_c3) / want_c3 < 1e-10

    ok = ok_wl and ok_kappa and ok_c3
    report(2, "closed-form oracles (wl, kappa-bary, C_3)", ok,
           f"wl={wl_distance(p, q):.10f} vs {want_wl:.10f}")


def test_criterion_03_limit_behavior():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(50):
        mu1, mu2 = random_unit(rng, 3), random_unit(rng, 3)
        p = VmfParams(mu=mu1, kappa=1e12)
        q = VmfParams(mu=mu2, kappa=1e12)
        if abs(wl_distance(p, q) - geodesic_distance(mu1, mu2)) >= 1e-5:
            ok = False
    mu1, mu2 = random_unit(rng, 4), random_unit(rng, 4)
    vals = [wl_distance(VmfParams(mu=mu1, kappa=k), VmfParams(mu=mu2, kappa=2 * k))
            for k in (1e-2, 1e-4, 1e-6)]
    ok = ok and vals[0] < vals[1] < vals[2]
    report(3, "limits: high-kappa geodesic, low-kappa blow-up", ok,
           f"blow-up sequence {[round(v, 2) for v in vals]}")


def test_criterion_04_barycenter_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    ok = True
    detail = ""

    p = VmfParams(mu=[1.0, 0.0, 0.0], kappa=1.0)
    q = VmfParams(mu=[0.0, 1.0, 0.0], kappa=4.0)
    mid = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    res = barycenter([p, q], [0.5, 0.5])
    if np.abs(res.params.mu - mid).max() >= 1e-8:
        ok, detail = False, "two-point slerp midpoint missed"

    for trial in range(100):
        d = int(rng.integers(2, 6))
        center = random_unit(rng, d)
        comps = []
        for _ in range(5):
            v = rng.standard_normal(d)
            v -= (center @ v) * center
            v *= rng.uniform(0, math.pi / 4) / np.linalg.norm(v)
            comps.append(VmfParams(mu=exp_map(TangentVector(base=center, vec=v)),
                                   kappa=math.exp(rng.uniform(-1.0, 3.0))))
        w = rng.dirichlet(np.ones(5))
        res = barycenter(comps, w)
        grad = sum(wi * log_map(res.params.mu, c.mu).vec for c, wi in zip(comps, w))
        if float(np.linalg.norm(grad)) >= 1e-6:
            ok, detail = False, f"gradient norm {np.linalg.norm(grad):.2e}"
        value = sum(wi * wl_distance(res.params, c) ** 2 for c, wi in zip(comps, w))
        for c in comps:
            if value > sum(wi * wl_distance(c, cc) ** 2 for cc, wi in zip(comps, w)) + 1e-10:
                ok, detail = False, "objective above an input component"
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        ok, detail = False, f"runtime {elapsed:.1f}s over 30s budget"
    report(4, "barycenter first-order optimality and objective", ok,
           detail or f"{elapsed:.1f}s")


def test_criterion_05_geodesic_interpolation():
    rng = np.random.default_rng(13)
    ok = True
    checked = 0
    while checked < 100:
        d = int(rng.integers(2, 6))
        p, q = random_law(rng, d), random_law(rng, d)
        if geodesic_distance(p.mu, q.mu) > math.pi - 1e-3:
            continue
        checked += 1
        total = wl_distance(p, q)
        for t in (0.25, 0.5, 0.75):
            if abs(wl_distance(p, wl_interpolate(p, q, t)) - t * total) >= 1e-8:
                ok = False
    report(5, "constant-speed geodesic interpolation", ok, "100 random pairs")


def test_criterion_06_sampler_moments():
    p5 = VmfParams(mu=[0.0, 0.0, 1.0], kappa=5.0)
    s = sample(p5, 100_000, seed=1001)
    r_bar = float(np.linalg.norm(s.points.mean(axis=0)))
    want = 1.0 / math.tanh(5.0) - 0.2
    ok = abs(r_bar - want) < 0.01

    p10 = VmfParams(mu=[0.0, 1.0, 0.0], kappa=10.0)
    s10 = sample(p10, 100_000, seed=1002)
    mean_vec = s10.points.mean(axis=0)
    align = float(mean_vec @ p10.mu) / float(np.linalg.norm(mean_vec))
    ok = ok and align > 0.999
    report(6, "sampler moments (resultant length, alignment)", ok,
           f"r_bar={r_bar:.5f} vs {want:.5f}, align={align:.6f}")


@pytest.mark.slow
def test_criterion_07_sim1_reproduction(tmp_path):
    start = time.perf_counter()
    wins = 0
    records = []
    for seed in range(5):
        purities = run_sim1(seed, str(tmp_path / f"sim1_{seed}"))
        # L2 does separate the cells (a correct L2 scores ~0.9), so the
        # contrast checked is that WL separates them and beats L2.
        hit = purities["wl"] >= 0.95 and purities["wl"] > purities["l2"]
        wins += hit
        records.append(f"seed{seed}: wl={purities['wl']:.3f} l2={purities['l2']:.3f}")
    elapsed = time.perf_counter() - start
    ok = wins >= 4 and elapsed < 180.0
    report(7, "sim1: wl purity >= 0.95 and wl purity > l2 purity in >= 4/5 seeds",
           ok, f"{wins}/5 seeds [{'; '.join(records)}] in {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_08_sim2_reproduction(tmp_path):
    start = time.perf_counter()
    argmin_wins = 0
    superset_ok = True
    records = []
    for seed in range(5):
        table = run_sim2(seed, str(tmp_path / f"sim2_{seed}"))
        ks = table["k"]
        fitted = np.array(table["fitted"])
        mins = {}
        for method in ("greedy", "hclust", "kmedoids"):
            vals = np.array(table[method])
            mins[method] = ks[int(np.argmin(vals))]
            if np.any(fitted > vals + 1e-9):
                superset_ok = False
        argmin_wins += mins["greedy"] == 4 and mins["kmedoids"] == 4
        # single-linkage missing K=4 is an allowed outcome, recorded only
        records.append(f"seed{seed}: greedy@{mins['greedy']} kmedoids@{mins['kmedoids']} "
                       f"hclust@{mins['hclust']}")
    elapsed = time.perf_counter() - start
    ok = argmin_wins >= 4 and superset_ok and elapsed < 300.0
    report(8, "sim2: greedy+kmedoids BIC argmin at K=4 in >= 4/5 seeds; fitted <= reduced",
           ok, f"argmin {argmin_wins}/5, superset={superset_ok} "
               f"[{'; '.join(records)}] in {elapsed:.0f}s")


def test_criterion_09_mass_conservation():
    rng = np.random.default_rng(17)
    ok = True
    for trial in range(10):
        n = int(rng.integers(5, 10))
        comps = []
        for _ in range(n):
            v = rng.standard_normal(3)
            comps.append(VmfParams(mu=v / np.linalg.norm(v),
                                   kappa=math.exp(rng.uniform(0.0, 3.0))))
        m = VmfMixture(components=tuple(comps), weights=rng.dirichlet(np.ones(n)))
        target = int(rng.integers(1, n))
        reduced, trace = greedy_reduce(m, target)
        if abs(reduced.weights.sum() - 1.0) > 1e-12:
            ok = False
        replay_trace(n, trace, m.weights)  # asserts per-step sums internally
        for method in ("hclust", "kmedoids"):
            reduced, trace = partitional_reduce(m, target, method=method, seed=trial)
            if abs(reduced.weights.sum() - 1.0) > 1e-12:
                ok = False
            replay_trace(n, trace, m.weights)
    report(9, "mass conservation at every reduction step", ok, "10 random mixtures x 3 methods")


def test_criterion_10_small_n_oracles():
    ok = True
    detail = ""
    for n in range(4, 9):
        rng = np.random.default_rng(n)
        dm = random_distance_matrix(rng, n)
        k = 3
        got = partition_cost(dm, kmedoids(dm, k, seed=n))
        want = min(float(dm.entries[:, list(meds)].min(axis=1).sum())
                   for meds in itertools.combinations(range(n), k))
        if abs(got - want) > 1e-12:
            ok, detail = False, f"kmedoids vs exhaustive mismatch at n={n}"

    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 13))
        dm = random_distance_matrix(rng, n)
        k = int(rng.integers(2, n))
        got = hclust_single_linkage(dm, k).assignment
        want = mst_deletion_partition(dm.entries, k)
        mapping = {}
        for a, b in zip(got, want):
            if mapping.setdefault(a, b) != b:
                ok, detail = False, f"single-linkage vs MST mismatch at seed={seed}"
    report(10, "small-n oracle equivalence (PAM exhaustive, MST deletion)", ok, detail)
