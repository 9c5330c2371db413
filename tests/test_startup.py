"""What importing vmfgeom and running its commands loads, in fresh interpreters.

scipy.special is imported on the first Bessel evaluation, not with vmfgeom,
so a command that evaluates no Bessel function never loads scipy. Also
checks that the names the benchmark's tracer wraps (``TARGETS`` in
``vmfbench/tracing.py``) still resolve to functions.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import vmfgeom
from vmfgeom import VmfMixture, VmfParams
from vmfgeom.formats import write_mixture

SRC = pathlib.Path(vmfgeom.__file__).parent
ROOT = SRC.parent.parent

# Runs each command line of argv[1] (a JSON list) through vmfgeom.cli.main in
# order and prints, per command, its exit code and whether scipy is loaded.
_PROBE = """
import json, sys
import vmfgeom.cli
out = [["import", 0, "scipy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    out.append([argv[0], vmfgeom.cli.main(argv), "scipy" in sys.modules])
print(json.dumps(out))
"""


def probe(*argvs):
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argvs)],
                         capture_output=True, text=True, env=env, check=True)
    return [tuple(row) for row in json.loads(run.stdout.splitlines()[-1])]


@pytest.fixture
def files(tmp_path):
    """A pair of single laws, a six-component mixture, a distance matrix
    and a sample CSV, all in R^3."""
    def single(name, mu, kappa):
        write_mixture(tmp_path / name, VmfMixture(components=(VmfParams(mu=mu, kappa=kappa),),
                                                  weights=[1.0]))
        return str(tmp_path / name)

    eye = np.eye(3)
    comps = tuple(VmfParams(mu=m, kappa=k) for m in (eye[0], eye[1], eye[2]) for k in (5.0, 8.0))
    write_mixture(tmp_path / "mix.json", VmfMixture(components=comps, weights=np.full(6, 1 / 6)))
    np.savetxt(tmp_path / "d.csv", np.ones((4, 4)) - np.eye(4), delimiter=",")
    np.savetxt(tmp_path / "x.csv", np.repeat(eye, 4, axis=0), delimiter=",")
    return {"a": single("a.json", eye[0], 1.0), "b": single("b.json", eye[1], 4.0),
            "mix": str(tmp_path / "mix.json"), "matrix": str(tmp_path / "d.csv"),
            "samples": str(tmp_path / "x.csv"), "out": str(tmp_path)}


def test_import_leaves_scipy_unloaded():
    assert probe() == [("import", 0, False)]


def test_bessel_free_commands_never_load_scipy(files):
    f, out = files, files["out"]
    rows = probe(["dist", f["a"], f["b"]],
                 ["interpolate", f["a"], f["b"], "--steps", "2", "-o", out + "/path"],
                 ["barycenter", f["mix"], "-o", out + "/bary.json"],
                 *[["reduce", f["mix"], "--k", "3", "--method", m, "-o", out + f"/{m}.json"]
                   for m in ("greedy", "hclust", "kmedoids")],
                 ["embed", f["matrix"], "-o", out + "/coords.csv"],
                 ["sample", f["mix"], "--n", "20", "-o", out + "/s.csv"])
    assert len(rows) == 9 and all(code == 0 and not loaded for _, code, loaded in rows), rows


@pytest.mark.parametrize("command", ["l2", "fit"])
def test_bessel_commands_load_scipy(files, command):
    # The import is deferred, not removed: log C_d and A_d need scipy's ive
    # (i0e and i1e at orders 0 and 1).
    f = files
    argv = (["dist", f["a"], f["b"], "--metric", "l2"] if command == "l2" else
            ["fit", f["samples"], "--k", "2", "--restarts", "1", "-o", f["out"] + "/fit.json",
             "--meta", f["out"] + "/meta.json"])
    assert probe(argv) == [("import", 0, False), (argv[0], 0, True)]


# Wraps fit_eval.logsumexp before its first call, as the benchmark's tracer
# does, then evaluates a mixture density three times.
_WRAPPED = """
import json
import numpy as np
from vmfgeom import VmfMixture, VmfParams, fit_eval
held, calls = fit_eval.logsumexp, []
def counting(*args, **kwargs):
    calls.append(1)
    return held(*args, **kwargs)
fit_eval.logsumexp = counting
m = VmfMixture(components=(VmfParams(mu=[1.0, 0.0, 0.0], kappa=2.0),), weights=[1.0])
values = [fit_eval.mixture_log_pdf(m, np.eye(3)).tolist() for _ in range(3)]
print(json.dumps([len(calls), fit_eval.logsumexp is counting, values]))
"""


def test_wrapper_before_first_call_sees_every_call():
    # Loading scipy at the first call rebinds nothing, so a wrapper put in
    # place beforehand stays bound, sees all three calls and changes no value.
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", _WRAPPED], capture_output=True, text=True,
                         env=env, check=True)
    calls, kept, values = json.loads(run.stdout)
    assert (calls, kept) == (3, True)
    law = VmfMixture(components=(VmfParams(mu=[1.0, 0.0, 0.0], kappa=2.0),), weights=[1.0])
    assert values == [vmfgeom.mixture_log_pdf(law, np.eye(3)).tolist()] * 3


def test_only_bessel_imports_scipy():
    # Nor does any other module call ive, i0e, i1e or gammaln, so log I_nu keeps one
    # implementation, bessel.log_ive. No module reads the environment: every
    # setting is an argument or a module constant. And no module rebinds its
    # own names through globals().
    importers, callers, env_readers, rebinders = set(), set(), set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(n.partition(".")[0] == "scipy" for n in names):
                importers.add(path.name)
            func = node.func if isinstance(node, ast.Call) else None
            if getattr(func, "id", getattr(func, "attr", None)) in ("ive", "i0e", "i1e", "gammaln"):
                callers.add(path.name)
            if getattr(func, "id", None) == "globals":
                rebinders.add(path.name)
            os_names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                        and node.module == "os" else
                        [node.attr] if isinstance(node, ast.Attribute)
                        and getattr(node.value, "id", None) == "os" else [])
            if {"environ", "environb", "getenv", "getenvb"} & set(os_names):
                env_readers.add(path.name)
    assert importers == {"bessel.py"}
    assert callers == {"bessel.py"}
    assert env_readers == set()
    assert rebinders == set()


def test_traced_names_resolve():
    # vmfbench/tracing.py wraps each (module, attribute) of TARGETS by name and
    # reports a metric as null when one is gone; read it without importing it.
    tree = ast.parse((ROOT / "vmfbench" / "tracing.py").read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    assert len(targets) > 20
    for span, module, attr, _, _ in targets:
        assert callable(getattr(importlib.import_module(f"vmfgeom.{module}"), attr, None)), span
