"""File formats: mixture JSON, sample CSV, distance CSV, trace JSONL."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vmfgeom import (DistanceMatrix, ReductionTrace, SampleSet, TraceEvent, VmfMixture,
                     VmfParams, greedy_reduce, pairwise_matrix, sample)
from vmfgeom.experiments import sim1_population
from vmfgeom.formats import (mixture_from_dict, mixture_to_dict,
                             read_distance_matrix, read_mixture, read_samples,
                             single_component, write_distance_matrix,
                             write_mixture, write_samples, write_trace)


def a_mixture():
    comps = (VmfParams(mu=[0.6, 0.8, 0.0], kappa=1.25),
             VmfParams(mu=[0.0, 0.0, 1.0], kappa=17.5))
    return VmfMixture(components=comps, weights=[0.3, 0.7])


class TestMixtureJson:
    def test_roundtrip_bit_exact(self, tmp_path):
        m = a_mixture()
        path = tmp_path / "m.json"
        write_mixture(path, m)
        back = read_mixture(path)
        assert back.d == 3 and back.k == 2
        assert np.array_equal(back.weights, m.weights)
        for ca, cb in zip(m.components, back.components):
            assert np.array_equal(ca.mu, cb.mu)
            assert ca.kappa == cb.kappa

    def test_schema_shape(self):
        doc = mixture_to_dict(a_mixture())
        assert doc["dim"] == 3
        assert list(doc["components"][0]) == ["weight", "mu", "kappa"]

    def test_dim_mismatch_rejected(self):
        doc = mixture_to_dict(a_mixture())
        doc["dim"] = 5
        with pytest.raises(ValueError):
            mixture_from_dict(doc)

    @pytest.mark.parametrize("dim", [None, 2.7, 3.0, "3", True, [3]])
    def test_dim_must_be_an_integer(self, dim):
        doc = mixture_to_dict(a_mixture())
        doc["dim"] = dim
        with pytest.raises(ValueError, match="declared dim"):
            mixture_from_dict(doc)

    @pytest.mark.parametrize("field,value", [("weight", True), ("kappa", True), ("mu", [True, False]),
                                             ("mu", [0.0, False, 1.0])])
    def test_booleans_are_not_numbers(self, field, value):
        doc = mixture_to_dict(a_mixture())
        doc["components"][0][field] = value
        with pytest.raises(ValueError, match="boolean"):
            mixture_from_dict(doc)

    def test_dim_optional(self):
        doc = mixture_to_dict(a_mixture())
        del doc["dim"]
        assert mixture_from_dict(doc).d == 3

    def test_malformed_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError):
            read_mixture(bad)
        bad.write_text(json.dumps({"components": []}))
        with pytest.raises(ValueError):
            read_mixture(bad)
        bad.write_text(json.dumps({"components": [{"weight": 1.0, "mu": [1, 0]}]}))
        with pytest.raises(ValueError):
            read_mixture(bad)

    def test_single_component_guard(self):
        with pytest.raises(ValueError):
            single_component(a_mixture())


class TestSampleCsv:
    def test_roundtrip_with_labels(self, tmp_path):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        s = SampleSet(points=pts, labels=np.array([0, 1, 1]))
        path = tmp_path / "s.csv"
        write_samples(path, s)
        back = read_samples(path)
        assert np.array_equal(back.points, s.points)
        assert np.array_equal(back.labels, s.labels)

    def test_roundtrip_without_labels(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((5, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        s = SampleSet(points=pts)
        path = tmp_path / "s.csv"
        write_samples(path, s)
        back = read_samples(path)
        assert back.labels is None
        assert np.array_equal(back.points, s.points)

    def test_header_flag(self, tmp_path):
        s = SampleSet(points=np.array([[1.0, 0.0]]), labels=np.array([3]))
        path = tmp_path / "h.csv"
        write_samples(path, s, header=True)
        text = path.read_text().splitlines()
        assert text[0] == "x0,x1,label"
        back = read_samples(path, header=True)
        assert back.labels[0] == 3

    def test_read_points_read_only_and_copied_once(self, tmp_path):
        pts = sample(VmfParams(mu=np.eye(64)[0], kappa=50.0), 2000, seed=4).points
        path = tmp_path / "s.csv"
        write_samples(path, SampleSet(points=pts))
        tracemalloc.start()
        try:
            s = read_samples(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(s.points, pts)
        assert not s.points.flags.writeable
        # The parsed array itself becomes the sample's points: no second copy
        # and no n x d temporary (the parser's own buffers stay well below).
        assert peak < 1.5 * pts.nbytes

    def test_read_labelled_points_copied_once(self, tmp_path):
        pts = sample(VmfParams(mu=np.eye(768)[0], kappa=500.0), 1000, seed=6).points
        labels = np.arange(1000) % 7
        path = tmp_path / "s.csv"
        write_samples(path, SampleSet(points=pts, labels=labels))
        tracemalloc.start()
        try:
            s = read_samples(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(s.points, pts) and np.array_equal(s.labels, labels)
        assert not s.points.flags.writeable
        # The points are a view of the parsed n x (d + 1) array: no copy of
        # the coordinates and no n x d temporary for their norms.
        assert peak < 1.5 * pts.nbytes

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0.5,0.5,0.5\n0.1,0.1,0.1\n")
        with pytest.raises(ValueError):
            read_samples(path)

    @pytest.mark.parametrize("last", ["9.223372036854776e+18", "-1e300", "1e19"])
    def test_integral_column_beyond_int64_is_not_a_label(self, tmp_path, last):
        # Such a column was cast to int64 as labels, with an invalid-value warning.
        path = tmp_path / "big.csv"
        path.write_text(f"1,0,{last}\n0,1,{last}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not unit-norm"):
                read_samples(path)


class TestDistanceCsv:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        comps = []
        for _ in range(6):
            v = rng.standard_normal(3)
            comps.append(VmfParams(mu=v / np.linalg.norm(v), kappa=2.0))
        dm = pairwise_matrix(comps, metric="wl")
        path = tmp_path / "d.csv"
        write_distance_matrix(path, dm)
        back = read_distance_matrix(path)
        assert np.array_equal(back.entries, dm.entries)

    def test_seventeen_significant_digits(self, tmp_path):
        dm = DistanceMatrix(entries=np.array([[0.0, math.pi], [math.pi, 0.0]]))
        path = tmp_path / "d.csv"
        write_distance_matrix(path, dm)
        assert "3.1415926535897931" in path.read_text()


def old_distance_matrix(path, entries):
    """The writer before each entry above the diagonal was formatted once."""
    np.savetxt(path, entries, delimiter=",", fmt="%.17g")


@pytest.fixture(scope="module")
def sim1_matrices():
    laws, _ = sim1_population(0)
    return {metric: pairwise_matrix(laws, metric=metric) for metric in ("wl", "l2")}


@st.composite
def symmetric_matrices(draw):
    """Symmetric nonnegative matrices whose zeros may carry either sign, so a
    zero can mirror a zero of the other sign."""
    n = draw(st.integers(1, 8))
    upper = draw(st.lists(st.floats(min_value=0.0, allow_infinity=False)
                          | st.sampled_from([0.0, 5e-324, 1.7976931348623157e308]),
                          min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = upper
    d += d.T
    negative = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    return np.where(negative.reshape(n, n) & (d == 0.0), -0.0, d)


class TestDistanceCsvBytes:
    """Each entry above the diagonal is formatted once and mirrored; the
    bytes are those of the old np.savetxt writer."""

    @staticmethod
    def assert_old_bytes(tmp, entries):
        write_distance_matrix(tmp / "new.csv", DistanceMatrix(entries=entries))
        old_distance_matrix(tmp / "old.csv", entries)
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()

    @pytest.mark.parametrize("metric", ["wl", "l2"])
    def test_sim1_matrices(self, tmp_path, sim1_matrices, metric):
        self.assert_old_bytes(tmp_path, sim1_matrices[metric].entries)

    @pytest.mark.parametrize("entries", [
        np.zeros((1, 1)), [[-0.0]], [[0.0, 2.5], [2.5, 0.0]],
        [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]],
        [[-0.0, 0.0, 1.5], [-0.0, 0.0, -0.0], [1.5, 0.0, -0.0]],
        [[0.0, 5e-324, 1.7976931348623157e308], [5e-324, 0.0, 0.1],
         [1.7976931348623157e308, 0.1, 0.0]],
    ], ids=["n1", "n1-negative-zero", "n2", "n3", "mirrored-signed-zeros", "extremes"])
    def test_small_and_edge_matrices(self, tmp_path, entries):
        self.assert_old_bytes(tmp_path, np.asarray(entries, dtype=np.float64))

    @given(symmetric_matrices())
    def test_symmetric_matrices(self, tmp_path_factory, entries):
        self.assert_old_bytes(tmp_path_factory.mktemp("dm"), entries)

    def test_write_peak_below_the_matrix(self, tmp_path, sim1_matrices):
        dm = sim1_matrices["l2"]
        tracemalloc.start()
        try:
            write_distance_matrix(tmp_path / "d.csv", dm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Streamed rows and per-column buffers: formatting every entry
        # before writing, or a whole-matrix .tolist(), cannot pass.
        assert dm.n == 400 and peak < dm.entries.nbytes


def old_float_lists(doc):
    """doc with every float list rebuilt element by element, as the writers
    did before they took .tolist()."""
    return {key: [float(v) for v in value] if key == "mu" else value for key, value in doc.items()}


class TestFloatListBytes:
    """The float lists come from .tolist(); the bytes are those of the
    element-by-element [float(v) for v in ...] they replace."""

    @staticmethod
    def mixture_768():
        rng = np.random.default_rng(0)
        mus = rng.standard_normal((3, 768))
        mus[:, 5:7] = 0.0
        mus /= np.linalg.norm(mus, axis=1, keepdims=True)
        mus[:, 5], mus[:, 6] = -0.0, 5e-324  # the norm does not change
        assert str(mus[0, 5]) == "-0.0" and mus[0, 6] == 5e-324
        return VmfMixture(components=tuple(VmfParams(mu=m, kappa=k) for m, k in
                                           zip(mus, (2.0, 5e-324, 1e5))),
                          weights=[0.5, 0.25, 0.25])

    def test_mixture_json_bytes(self, tmp_path):
        m = self.mixture_768()
        want = {"dim": 768, "components": [old_float_lists({"weight": float(w), "mu": c.mu,
                                                            "kappa": c.kappa})
                                           for c, w in zip(m.components, m.weights)]}
        write_mixture(tmp_path / "m.json", m)
        text = (tmp_path / "m.json").read_text()
        assert text == json.dumps(want, indent=2) + "\n"
        assert "-0.0," in text and "5e-324" in text

    def test_trace_bytes(self, tmp_path):
        m = self.mixture_768()
        events = tuple(TraceEvent(merged=(j, j + 1), result=c, weight=w)
                       for j, (c, w) in enumerate(zip(m.components, m.weights)))
        trace = ReductionTrace(events=events, method="greedy")
        write_trace(tmp_path / "t.jsonl", trace)
        want = "".join(json.dumps(old_float_lists({
            "step": s, "merged": list(e.merged), "weight": float(e.weight), "mu": e.result.mu,
            "kappa": e.result.kappa})) + "\n" for s, e in enumerate(events))
        assert (tmp_path / "t.jsonl").read_text() == want


class TestTraceJsonl:
    def test_event_schema(self, tmp_path):
        comps = tuple(VmfParams(mu=m, kappa=5.0) for m in
                      ([1, 0], [0, 1], [-1, 0]))
        m = VmfMixture(components=comps, weights=[0.25, 0.5, 0.25])
        _, trace = greedy_reduce(m, 1)
        path = tmp_path / "t.jsonl"
        write_trace(path, trace)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["step"] == 0
        assert set(lines[0]) == {"step", "merged", "weight", "mu", "kappa"}
        assert sum(w["weight"] for w in lines[-1:]) == pytest.approx(1.0)
