"""On-disk formats: mixture JSON, sample CSV, distance-matrix CSV, trace JSONL.

Mixture files are UTF-8 JSON:

    {"dim": d, "components": [{"weight": w, "mu": [...], "kappa": k}, ...]}

"dim" is optional; when present it must be a JSON integer equal to the
length of every "mu". A single law is a mixture with one component of
weight 1. Floats in CSV output use 17 significant digits; JSON floats use
Python's shortest round-trip representation. Both survive a write/read
cycle bit-exactly.
"""

import json
import warnings

import numpy as np

from .core import SampleSet, VmfMixture, VmfParams
from .fit_eval import FitResult
from .geometry import DistanceMatrix
from .reduction import ReductionTrace

_FMT = "%.17g"


def mixture_to_dict(m: VmfMixture) -> dict:
    return {
        "dim": m.d,
        "components": [
            {"weight": float(w), "mu": [float(v) for v in c.mu], "kappa": c.kappa}
            for c, w in zip(m.components, m.weights)
        ],
    }


def mixture_from_dict(doc: dict) -> VmfMixture:
    if not isinstance(doc, dict) or "components" not in doc:
        raise ValueError("mixture document must be an object with 'components'")
    comps = doc["components"]
    if not isinstance(comps, list) or not comps:
        raise ValueError("'components' must be a nonempty list")
    params = []
    weights = []
    for entry in comps:
        try:
            mu, kappa, weight = entry["mu"], entry["kappa"], entry["weight"]
            numbers = [kappa, weight] + (mu if isinstance(mu, list) else [])
            if bool in map(type, numbers):  # json reads true as 1; bool has no subclasses
                raise ValueError("component entry holds a boolean where a number belongs")
            params.append(VmfParams(mu=np.asarray(mu, dtype=np.float64), kappa=float(kappa)))
            weights.append(float(weight))
        except (KeyError, TypeError, OverflowError) as err:  # OverflowError: ints past float64
            raise ValueError(f"malformed component entry: {err}") from err
    m = VmfMixture(components=tuple(params), weights=np.asarray(weights))
    dim = doc.get("dim", m.d)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim != m.d:
        raise ValueError(f"declared dim {dim!r} is not the components' dimension ({m.d})")
    return m


def write_mixture(path, m: VmfMixture) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mixture_to_dict(m), fh, indent=2)
        fh.write("\n")


def read_mixture(path) -> VmfMixture:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as err:  # json recurses per nesting level
            raise ValueError(f"not valid JSON: {err}") from err
    return mixture_from_dict(doc)


def single_component(m: VmfMixture) -> VmfParams:
    """The single law in a one-component mixture file; rejects K > 1."""
    if m.k != 1:
        raise ValueError(f"expected a single-component mixture, got {m.k} components")
    return m.components[0]


def write_samples(path, s: SampleSet, header: bool = False) -> None:
    cols, fmt, data = [f"x{i}" for i in range(s.d)], [_FMT] * s.d, s.points
    if s.labels is not None:
        cols, fmt, data = cols + ["label"], fmt + ["%d"], np.column_stack([data, s.labels])
    np.savetxt(path, data, delimiter=",", fmt=fmt, header=",".join(cols) if header else "",
               comments="")


def read_samples(path, header: bool = False) -> SampleSet:
    """Read a sample CSV; a trailing label column is detected by checking
    whether the rows are unit-norm without or with their last column. Both
    fit only where that column is all zeros (`sample` of one law), so the
    labelled reading goes first."""
    raw = _read_csv(path, skiprows=1 if header else 0)
    # The labelled points stay a view of the parsed array, rows d + 1 apart.
    readings = [(raw, None)]
    if raw.shape[1] >= 3 and np.all(raw[:, -1] == np.round(raw[:, -1])):
        readings.insert(0, (raw[:, :-1], raw[:, -1].astype(np.int64)))
    for points, labels in readings:
        norms = np.sqrt(np.einsum("ij,ij->i", points, points))  # no n x d temporary
        if np.all(np.abs(norms - 1.0) <= 1e-6):
            return SampleSet(points=points, labels=labels, _owned=True)
    raise ValueError("rows are not unit-norm, with or without a trailing label column")


def write_distance_matrix(path, dm: DistanceMatrix) -> None:
    np.savetxt(path, dm.entries, delimiter=",", fmt=_FMT)


def read_distance_matrix(path) -> DistanceMatrix:
    return DistanceMatrix(entries=_read_csv(path))


def _read_csv(path, skiprows: int = 0) -> np.ndarray:
    """The numbers of a comma-separated file as a 2-d array. A file without
    data rows raises ValueError, and numpy's warning about it is not shown."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        raw = np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)
    if raw.shape[0] == 0:
        raise ValueError("the file holds no data rows")
    return raw


def write_trace(path, trace: ReductionTrace) -> None:
    """One JSON object per merge event, in order."""
    with open(path, "w", encoding="utf-8") as fh:
        for step, event in enumerate(trace.events):
            doc = {
                "step": step,
                "merged": list(event.merged),
                "weight": float(event.weight),
                "mu": [float(v) for v in event.result.mu],
                "kappa": event.result.kappa,
            }
            fh.write(json.dumps(doc) + "\n")


def write_fit_metadata(path, result: FitResult) -> None:
    doc = {
        "loglik": result.log_likelihood,
        "bic": result.bic,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_coordinates(path, coords: np.ndarray) -> None:
    np.savetxt(path, coords, delimiter=",", fmt=_FMT)
