import ast
import os
import pathlib
import subprocess
import sys

import hypothesis
import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Numeric property tests do real linear algebra; wall-clock deadlines only
# produce flaky CI, so they are disabled for the whole suite.
hypothesis.settings.register_profile("numeric", deadline=None, max_examples=50)
hypothesis.settings.load_profile("numeric")


@pytest.fixture
def ive_calls(monkeypatch):
    """(order, element count) of each scaled-Bessel evaluation the test
    makes, whichever scipy function (ive, i0e or i1e) serves it."""
    from vmfgeom import bessel

    calls, held = [], bessel._ive

    def counting(nu, x):
        calls.append((nu, np.size(x)))
        return held(nu, x)

    monkeypatch.setattr(bessel, "_ive", counting)
    return calls


def _bench_env():
    """The fixed environment of the benchmark's measured processes (ENV in
    vmfbench/run.py), read without importing run.py, whose imports load
    the benchmark's checks."""
    tree = ast.parse((ROOT / "vmfbench" / "run.py").read_text(encoding="utf-8"))
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["ENV"])
    return eval(compile(ast.Expression(value), "run.py", "eval"), {"__builtins__": {}, "os": os})


@pytest.fixture(scope="session")
def bench_cli():
    """run(*args, threads=1): ``python -m vmfgeom.cli ARGS`` in a fresh
    interpreter at the root of this checkout, with the benchmark's
    environment and `threads` BLAS threads; returns the CompletedProcess."""
    env = _bench_env()

    def run(*args, threads=1):
        counts = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                               str(threads))
        return subprocess.run([sys.executable, "-m", "vmfgeom.cli", *map(str, args)], cwd=ROOT,
                              env={**env, **counts}, capture_output=True, text=True)
    return run
