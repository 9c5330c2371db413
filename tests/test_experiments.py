"""Experiment harness: generators, purity scoring, output contracts."""

import math

import numpy as np
import pytest

from vmfgeom.experiments import (SIM1_CELLS, cluster_purity, run_sim1,
                                 sim1_population, sim2_truth)


class TestSim1Population:
    def test_shapes_and_ranges(self):
        laws, labels = sim1_population(0)
        assert len(laws) == 400
        assert np.array_equal(np.bincount(labels), [100, 100, 100, 100])
        for law, label in zip(laws, labels):
            _, theta_range, kappa_range = SIM1_CELLS[label]
            assert kappa_range[0] <= law.kappa <= kappa_range[1]
            theta = math.atan2(law.mu[1], law.mu[0]) % (2 * math.pi)
            lo, hi = theta_range
            assert lo - 1e-9 <= theta + (2 * math.pi if theta < lo - 1e-9 and hi > 2 * math.pi else 0) <= hi + 1e-9

    def test_deterministic(self):
        a, la = sim1_population(3)
        b, lb = sim1_population(3)
        assert np.array_equal(la, lb)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.mu, pb.mu)
            assert pa.kappa == pb.kappa


class TestPurity:
    def test_purity_perfect_and_merged(self):
        labels = np.array([0, 0, 1, 1])
        assert cluster_purity(np.array([0, 0, 1, 1]), labels) == 1.0
        assert cluster_purity(np.array([0, 0, 0, 0]), labels) == 0.5


class TestSim2Truth:
    def test_structure(self):
        m = sim2_truth()
        assert m.k == 4 and m.d == 2
        assert np.allclose(m.weights, 0.25)
        assert all(c.kappa == 10.0 for c in m.components)


@pytest.mark.slow
class TestRunSim1Contract:
    def test_outputs_exist_with_400_rows(self, tmp_path):
        out = tmp_path / "sim1"
        purities = run_sim1(0, str(out))
        assert set(purities) == {"wl", "l2"}
        assert purities["wl"] >= 0.95
        for name in ("wl_matrix.csv", "l2_matrix.csv"):
            rows = (out / name).read_text().splitlines()
            assert len(rows) == 400
        for name in ("wl_embedding.csv", "l2_embedding.csv"):
            rows = (out / name).read_text().splitlines()
            assert rows[0] == "x,y,label"
            assert len(rows) == 401
        assert (out / "params.csv").read_text().splitlines()[0] == \
            "type,label,mu_0,mu_1,kappa"
        assert (out / "purity.csv").read_text().splitlines() == \
            ["metric,purity"] + [f"{name},{purities[name]!r}" for name in ("wl", "l2")]

    def test_every_csv_is_numeric(self, tmp_path):
        out = tmp_path / "sim1"
        run_sim1(0, str(out))
        laws, labels = sim1_population(0)
        params = np.loadtxt(out / "params.csv", delimiter=",", skiprows=1, usecols=(1, 2, 3, 4))
        assert np.array_equal(params[:, 0], labels)
        assert np.array_equal(params[:, 1:3], np.stack([law.mu for law in laws]))
        assert np.array_equal(params[:, 3], [law.kappa for law in laws])
        for name in ("wl", "l2"):
            matrix = np.loadtxt(out / f"{name}_matrix.csv", delimiter=",")
            assert matrix.shape == (400, 400)
            emb = np.loadtxt(out / f"{name}_embedding.csv", delimiter=",", skiprows=1)
            assert emb.shape == (400, 3) and np.array_equal(emb[:, 2], labels)
        purity = np.loadtxt(out / "purity.csv", delimiter=",", skiprows=1, usecols=1)
        assert purity.shape == (2,)
