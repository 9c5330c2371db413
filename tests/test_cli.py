"""Command-line surface: subcommands, exit codes, byte-stable outputs."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import vmfgeom
from vmfgeom import VmfMixture, VmfParams, fit_eval, l2_distance
from vmfgeom.cli import main
from vmfgeom.core import MAX_SAMPLE_ENTRIES
from vmfgeom.formats import read_mixture, read_samples, write_mixture
from vmfgeom.geometry import MAX_PAIRWISE_LAWS


def run_cli(*args):
    """Run the CLI in a fresh interpreter on this checkout's package."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(vmfgeom.__file__))}
    return subprocess.run([sys.executable, "-m", "vmfgeom.cli", *args],
                          capture_output=True, text=True, env=env)


# The CLI in a child that first caps its own address space at 1 GB, so an
# oversized allocation fails there (MemoryError) instead of taking the memory.
_UNDER_1GB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from vmfgeom.cli import main
sys.exit(main(sys.argv[1:]))
"""


def write_single(path, mu, kappa):
    m = VmfMixture(components=(VmfParams(mu=mu, kappa=kappa),), weights=[1.0])
    write_mixture(path, m)
    return str(path)


@pytest.fixture
def laws(tmp_path):
    a = write_single(tmp_path / "a.json", [1.0, 0.0, 0.0], 1.0)
    b = write_single(tmp_path / "b.json", [0.0, 1.0, 0.0], 4.0)
    return a, b


class TestDist:
    def test_wl_worked_example(self, laws, capsys):
        a, b = laws
        assert main(["dist", a, b]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(1.7226146116506558, abs=1e-12)
        assert len(out) >= 17  # 17 significant digits requested

    def test_same_file_zero(self, laws, capsys):
        a, _ = laws
        assert main(["dist", a, a]) == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_l2_same_file_tiny(self, laws, capsys):
        a, _ = laws
        assert main(["dist", a, a, "--metric", "l2"]) == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_l2_exact_value(self, laws, capsys):
        a, b = laws
        assert main(["dist", a, b, "--metric", "l2"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == l2_distance(read_mixture(a).components[0],
                                         read_mixture(b).components[0])

    def test_l2_beyond_float64_exit_2(self, tmp_path, capsys):
        d = 768
        a = write_single(tmp_path / "a768.json", np.eye(d)[0], 1e-6)
        b = write_single(tmp_path / "b768.json", np.eye(d)[1], 1e-3)
        assert main(["dist", a, b, "--metric", "l2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_l2_cancelled_bracket_exit_2(self, tmp_path, capsys):
        # The kernel's bracket cancels to 0 within its error bound, while the
        # true distance (mpmath: about 3e309) is past float64; not 0.0.
        d = 768
        a = write_single(tmp_path / "a768.json", np.eye(d)[0], 1e-6)
        b = write_single(tmp_path / "b768.json", np.eye(d)[1], 1e-6)
        assert main(["dist", a, b, "--metric", "l2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["dist", str(bad), str(bad)]) == 2

    def test_multi_component_exit_2(self, tmp_path, laws):
        a, _ = laws
        multi = tmp_path / "multi.json"
        m = VmfMixture(components=(VmfParams(mu=[1, 0, 0], kappa=1.0),
                                   VmfParams(mu=[0, 1, 0], kappa=1.0)),
                       weights=[0.5, 0.5])
        write_mixture(multi, m)
        assert main(["dist", str(multi), a]) == 2

    def test_dimension_mismatch_exit_2(self, tmp_path, laws):
        a, _ = laws
        other = write_single(tmp_path / "c.json", [1.0, 0.0], 1.0)
        assert main(["dist", a, other]) == 2

    @pytest.mark.parametrize("dim", [None, 2.7, "x", True])
    def test_malformed_dim_exit_2(self, tmp_path, dim):
        doc = {"dim": dim, "components": [{"weight": 1.0, "mu": [1.0, 0.0], "kappa": 1.0}]}
        path = tmp_path / "dim.json"
        path.write_text(json.dumps(doc))
        run = run_cli("dist", str(path), str(path))
        assert run.returncode == 2
        assert run.stderr.startswith("error:") and "Traceback" not in run.stderr

    def test_boolean_component_fields_exit_2(self, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text('{"components":[{"weight":true,"mu":[true,false],"kappa":true}]}')
        run = run_cli("dist", str(path), str(path))
        assert run.returncode == 2
        assert run.stderr.startswith("error:") and "boolean" in run.stderr
        assert run.stdout == ""


class TestBarycenter:
    def test_writes_single_component(self, tmp_path):
        src = tmp_path / "m.json"
        m = VmfMixture(components=(VmfParams(mu=[1, 0, 0], kappa=1.0),
                                   VmfParams(mu=[0, 1, 0], kappa=4.0)),
                       weights=[0.5, 0.5])
        write_mixture(src, m)
        out = tmp_path / "bary.json"
        meta = tmp_path / "meta.json"
        assert main(["barycenter", str(src), "-o", str(out), "--meta", str(meta)]) == 0
        got = read_mixture(out)
        assert got.k == 1
        assert got.components[0].kappa == pytest.approx(16.0 / 9.0, abs=1e-12)
        doc = json.loads(meta.read_text())
        assert doc["converged"] is True

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
    def test_bad_tol_exit_2(self, tmp_path, capsys, tol):
        # Refused with one error line before any iteration: a NaN tolerance
        # ran all 1,000 and exited 0, an infinite one stopped after the first.
        src = tmp_path / "m.json"
        write_mixture(src, VmfMixture(components=(VmfParams(mu=[1, 0, 0], kappa=1.0),
                                                  VmfParams(mu=[0, 1, 0], kappa=4.0)),
                                      weights=[0.5, 0.5]))
        out = tmp_path / "b.json"
        assert main(["barycenter", str(src), "-o", str(out), f"--tol={tol}"]) == 2
        assert capsys.readouterr().err == "error: tol must be finite and > 0\n"
        assert not out.exists()

    def test_antipodal_exit_2(self, tmp_path):
        src = tmp_path / "m.json"
        m = VmfMixture(components=(VmfParams(mu=[1, 0], kappa=1.0),
                                   VmfParams(mu=[-1, 0], kappa=1.0)),
                       weights=[0.5, 0.5])
        write_mixture(src, m)
        assert main(["barycenter", str(src), "-o", str(tmp_path / "x.json")]) == 2


class TestReduce:
    def mixture_file(self, tmp_path):
        comps = tuple(VmfParams(mu=m, kappa=10.0) for m in
                      ([1, 0], [0, 1], [-1, 0], [0, -1], [0.8, 0.6]))
        m = VmfMixture(components=comps, weights=np.full(5, 0.2))
        path = tmp_path / "mix.json"
        write_mixture(path, m)
        return str(path)

    @pytest.mark.parametrize("method", ["greedy", "hclust", "kmedoids"])
    def test_reduce_writes_mixture_and_trace(self, tmp_path, method):
        src = self.mixture_file(tmp_path)
        out = tmp_path / f"red_{method}.json"
        trace = tmp_path / f"trace_{method}.jsonl"
        assert main(["reduce", src, "--k", "3", "--method", method,
                     "-o", str(out), "--trace", str(trace)]) == 0
        got = read_mixture(out)
        assert got.k == 3
        assert got.weights.sum() == pytest.approx(1.0, abs=1e-12)
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert events

    def test_k_too_large_exit_2(self, tmp_path):
        src = self.mixture_file(tmp_path)
        assert main(["reduce", src, "--k", "5", "-o", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("method", ["greedy", "hclust", "kmedoids"])
    def test_too_many_components_exit_2(self, tmp_path, capsys, method):
        n = MAX_PAIRWISE_LAWS + 1
        doc = {"dim": 2, "components": [{"weight": 1.0 / n, "mu": [1.0, 0.0], "kappa": 1.0}] * n}
        src = tmp_path / "big.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "x.json"
        assert main(["reduce", str(src), "--k", "2", "--method", method, "-o", str(out)]) == 2
        assert "pairwise limit" in capsys.readouterr().err and not out.exists()

    def test_deeply_nested_json_exit_2(self, tmp_path):
        src = tmp_path / "deep.json"
        depth = 100_000
        src.write_text('{"components": ' + "[" * depth + "]" * depth + "}")
        run = run_cli("reduce", str(src), "--k", "1", "-o", str(tmp_path / "x.json"))
        assert run.returncode == 2
        assert run.stderr.startswith("error:") and "Traceback" not in run.stderr

    def test_deterministic_bytes(self, tmp_path):
        src = self.mixture_file(tmp_path)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["reduce", src, "--k", "2", "--method", "kmedoids", "--seed", "5",
              "-o", str(out1)])
        main(["reduce", src, "--k", "2", "--method", "kmedoids", "--seed", "5",
              "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestSampleAndFit:
    def test_sample_then_fit(self, tmp_path):
        mix = tmp_path / "mix.json"
        m = VmfMixture(components=(VmfParams(mu=[1, 0], kappa=10.0),
                                   VmfParams(mu=[-1, 0], kappa=10.0)),
                       weights=[0.5, 0.5])
        write_mixture(mix, m)
        csv = tmp_path / "s.csv"
        assert main(["sample", str(mix), "--n", "400", "--seed", "3",
                     "-o", str(csv)]) == 0
        s = read_samples(csv)
        assert s.n == 400 and s.labels is not None

        out = tmp_path / "fit.json"
        meta = tmp_path / "fit_meta.json"
        assert main(["fit", str(csv), "--k", "2", "--restarts", "3",
                     "--seed", "1", "-o", str(out), "--meta", str(meta)]) == 0
        got = read_mixture(out)
        assert got.k == 2
        doc = json.loads(meta.read_text())
        assert set(doc) == {"loglik", "bic", "iterations", "converged"}
        assert doc["bic"] == pytest.approx(
            -2 * doc["loglik"] + 5 * math.log(400), rel=1e-12)

    def test_one_component_sample_then_fit_keeps_dim(self, tmp_path):
        # One component gets a trailing column of zero labels, which must not
        # read as a fourth coordinate.
        mix = tmp_path / "mix.json"
        write_mixture(mix, VmfMixture(components=(VmfParams(mu=[0, 0, 1], kappa=5.0),),
                                      weights=[1.0]))
        csv = tmp_path / "s.csv"
        assert main(["sample", str(mix), "--n", "100", "--seed", "2", "-o", str(csv)]) == 0
        out, meta = tmp_path / "fit.json", tmp_path / "fit_meta.json"
        assert main(["fit", str(csv), "--k", "1", "--restarts", "2",
                     "-o", str(out), "--meta", str(meta)]) == 0
        assert json.loads(out.read_text())["dim"] == 3

    def test_sample_deterministic_bytes(self, tmp_path):
        mix = tmp_path / "mix.json"
        write_mixture(mix, VmfMixture(
            components=(VmfParams(mu=[0.0, 1.0], kappa=2.0),), weights=[1.0]))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sample", str(mix), "--n", "50", "--seed", "7", "-o", str(a)])
        main(["sample", str(mix), "--n", "50", "--seed", "7", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n", [10_000_000_000_000, MAX_SAMPLE_ENTRIES // 3 + 1])
    def test_huge_n_refused_before_allocating(self, tmp_path, n):
        # Just past the cap at d = 3, the draw alone would need more than 1 GB.
        one = write_single(tmp_path / "one.json", [1.0, 0.0, 0.0], 2.0)
        out = tmp_path / "s.csv"
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(vmfgeom.__file__))}
        run = subprocess.run([sys.executable, "-c", _UNDER_1GB, "sample", one, "--n", str(n),
                              "-o", str(out)], capture_output=True, text=True, env=env)
        assert run.returncode == 2
        assert run.stderr == f"error: n * d = {3 * n} exceeds the sampling limit of {MAX_SAMPLE_ENTRIES}\n"
        assert not out.exists()

    def test_failed_concentration_solve_exit_3(self, tmp_path, capsys, monkeypatch):
        # A constant A_d never meets the mean resultant lengths, so the
        # concentration solve raises RuntimeError: one error line, exit 3.
        monkeypatch.setattr(fit_eval, "_log_ive_and_ratio",
                            lambda nu, x, ratio: (np.zeros(np.shape(x)), np.full(np.shape(x), 0.99)))
        csv = tmp_path / "x.csv"
        np.savetxt(csv, np.repeat(np.eye(3), 4, axis=0), delimiter=",")
        code = main(["fit", str(csv), "--k", "2", "--restarts", "1",
                     "-o", str(tmp_path / "fit.json"), "--meta", str(tmp_path / "meta.json")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: concentration solve did not converge")
        assert err.count("\n") == 1

    def test_fit_k_too_large_exit_2(self, tmp_path):
        csv = tmp_path / "tiny.csv"
        csv.write_text("1,0\n0,1\n-1,0\n")
        assert main(["fit", str(csv), "--k", "3", "-o", str(tmp_path / "x.json"),
                     "--meta", str(tmp_path / "m.json")]) == 2


class TestInterpolate:
    def test_endpoints_reproduce_inputs(self, tmp_path, laws):
        a, b = laws
        out = tmp_path / "steps"
        assert main(["interpolate", a, b, "--steps", "4", "-o", str(out)]) == 0
        files = sorted(out.iterdir())
        assert len(files) == 5
        first = read_mixture(files[0])
        last = read_mixture(files[-1])
        assert np.array_equal(first.components[0].mu, read_mixture(a).components[0].mu)
        assert last.components[0].kappa == read_mixture(b).components[0].kappa
        mid = read_mixture(out / "interp_002.json")
        assert mid.components[0].kappa == pytest.approx(16.0 / 9.0, abs=1e-12)


class TestEmbed:
    def test_embed_matrix(self, tmp_path):
        d = np.ones((3, 3)) - np.eye(3)
        src = tmp_path / "d.csv"
        np.savetxt(src, d, delimiter=",", fmt="%.17g")
        out = tmp_path / "coords.csv"
        assert main(["embed", str(src), "--dim", "2", "-o", str(out)]) == 0
        coords = np.loadtxt(out, delimiter=",")
        got = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
        assert got == pytest.approx(d, abs=1e-9)

    def test_asymmetric_matrix_exit_2(self, tmp_path):
        src = tmp_path / "d.csv"
        src.write_text("0,1\n2,0\n")
        assert main(["embed", str(src), "-o", str(tmp_path / "c.csv")]) == 2


class TestStderrLines:
    """What the CLI writes to stderr: its own one-line messages, never a
    library warning with its source file and line."""

    @pytest.mark.parametrize("content, command", [
        ("", ["fit", "--k", "1", "--meta", os.devnull]),
        ("x0,x1\n", ["fit", "--k", "1", "--meta", os.devnull, "--header"]),
        ("", ["embed"]),
    ])
    def test_no_data_rows_one_error_line(self, tmp_path, content, command):
        src = tmp_path / "in.csv"
        src.write_text(content)
        run = run_cli(command[0], str(src), "-o", str(tmp_path / "out"), *command[1:])
        assert run.returncode == 2
        assert run.stderr == f"error: {src}: the file holds no data rows\n"

    @staticmethod
    def beyond_ball(tmp_path):
        """A mixture file whose extrinsic mean leaves its second direction
        outside the pi/2 ball, so frechet_mean warns."""
        src = tmp_path / "m.json"
        write_mixture(src, VmfMixture(components=(VmfParams(mu=[1, 0, 0], kappa=2.0),
                                                  VmfParams(mu=[-0.6, 0.8, 0], kappa=3.0)),
                                      weights=[0.8, 0.2]))
        return src

    @pytest.mark.parametrize("command", [["barycenter"], ["reduce", "--k", "1"]])
    def test_library_warning_one_line(self, tmp_path, command):
        src = self.beyond_ball(tmp_path)
        run = run_cli(command[0], str(src), *command[1:], "-o", str(tmp_path / "out.json"))
        assert run.returncode == 0
        assert run.stderr == ("warning: directions exceed the open pi/2 ball around the "
                              "initializer; the Frechet mean may not be unique\n")

    def test_in_process_caller_keeps_its_warning_state(self, tmp_path, capsys):
        src = self.beyond_ball(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            shown, filters = warnings.showwarning, list(warnings.filters)
            assert main(["barycenter", str(src), "-o", str(tmp_path / "out.json")]) == 0
            assert warnings.showwarning is shown and warnings.filters == filters
            warnings.warn("after main", UserWarning)
        assert capsys.readouterr().err.startswith("warning: directions exceed")
        assert [str(w.message) for w in caught] == ["after main"]


class TestExperimentCommand:
    def test_unknown_scenario_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--scenario", "sim9", "--out", "/tmp/x"])
        assert exc.value.code == 2


# Malformed mixture documents: wrong types, missing keys, non-finite and
# out-of-range numbers, odd nesting, next to well-formed entries.
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**400, 10**400),
                     st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8)
_NUMBER = st.one_of(st.floats(1e-3, 1e3), _SCALARS, _JSON)
_VECTOR = st.one_of(st.sampled_from([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [-1.0, 0.0],
                                     [1.0, 0.0, 0.0]]), st.lists(_NUMBER, max_size=4), _JSON)
_COMPONENT = st.one_of(st.fixed_dictionaries({}, optional={"mu": _VECTOR, "kappa": _NUMBER,
                                                           "weight": _NUMBER}), _JSON)
# Integers past float64's range once escaped as OverflowError.
_HUGE_INT = {"components": [{"mu": [1.0, 0.0], "kappa": 10**400, "weight": 1.0}]}
_MIXTURE = st.one_of(st.fixed_dictionaries({"components": st.lists(_COMPONENT, max_size=4)},
                                           optional={"dim": _NUMBER}), _JSON)


class TestMalformedMixtureFuzz:
    @staticmethod
    def exit_code(doc, command, *options):
        """main's return code on the document; an exception escaping fails the test."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            inputs = {"reduce": [path, "--k", "1", "-o", os.path.join(tmp, "out.json")],
                      "dist": [path, path]}[command]
            return main([command, *inputs, *options])

    @settings(max_examples=150)
    @given(doc=_MIXTURE, method=st.sampled_from(["greedy", "hclust", "kmedoids"]))
    @example(doc=_HUGE_INT, method="greedy")
    def test_reduce_exit_codes(self, doc, method):
        assert self.exit_code(doc, "reduce", "--method", method) in (0, 2, 3)

    @settings(max_examples=150)
    @given(doc=_MIXTURE, metric=st.sampled_from(["wl", "l2"]))
    @example(doc={"components": [{"mu": [10**400, 0], "kappa": 1.0, "weight": 1.0}]}, metric="wl")
    @example(doc=_HUGE_INT, metric="wl")
    def test_dist_exit_codes(self, doc, metric):
        assert self.exit_code(doc, "dist", "--metric", metric) in (0, 2, 3)


# Malformed CSV files: ragged rows, empty files, non-finite and out-of-range
# numbers, text, stray separators and bytes that are not UTF-8, next to rows
# of a well-formed file.
_CELL = st.one_of(st.sampled_from(["0", "1", "0.6", "0.8", "-1", "2", "nan", "inf", "-inf", "1e400",
                                   "1e-400", "", " ", "x", ";", "\t", '"1"', "0x10", "1_0"]),
                  st.floats().map(repr), st.text(max_size=3))
_ROW = st.one_of(st.sampled_from(["1,0", "0,1", "0.6,0.8", "0.6,0.8,0", "0,1,1", "0,1\r"]),
                 st.lists(_CELL, max_size=4).map(",".join))
_CSV = st.lists(_ROW, max_size=5).map("\n".join).map(str.encode)
_BYTES = st.one_of(_CSV, st.binary(max_size=24), st.tuples(_CSV, st.binary(min_size=1, max_size=4))
                   .map(lambda parts: parts[0] + b"\xff" + parts[1]))


class TestMalformedCsvFuzz:
    @staticmethod
    def exit_code(data: bytes, command, *options):
        """main's return code on the file; an exception escaping fails the
        test, and no traceback may be printed."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "in.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            out = os.path.join(tmp, "out")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, path, "-o", out, *options])
        assert "Traceback" not in err.getvalue()
        return code

    @given(data=_BYTES)
    @example(data=b"")
    @example(data=b"1,0\n0,1\n")
    @example(data=b"1,0\n0,1,0\n")
    @example(data=b"1e400,0\n0,1\n")
    @example(data=b"\xff\xfe1,0\n")
    def test_fit_exit_codes(self, data):
        code = self.exit_code(data, "fit", "--k", "1", "--restarts", "1", "--meta", os.devnull)
        assert code in (0, 2, 3)

    @given(data=_BYTES)
    @example(data=b"")
    @example(data=b"0,1\n1,0\n")
    @example(data=b"0,nan\nnan,0\n")
    @example(data=b"0,1,2\n1,0\n")
    @example(data=b"0,1\n1,0\xff\n")
    def test_embed_exit_codes(self, data):
        assert self.exit_code(data, "embed", "--dim", "1") in (0, 2, 3)
