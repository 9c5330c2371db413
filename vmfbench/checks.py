"""Output checks for every workload, computed apart from the program.

Only numpy, scipy and mpmath are used here; nothing imports vmfgeom. Each
check takes the output directory of one command and raises ``CheckFailed``
with a reason when an output is wrong.
"""

import csv
import json
import math
import os
import re
from functools import partial

import mpmath
import numpy as np
from scipy.linalg import eigh
from scipy.special import ive, logsumexp

mpmath.mp.dps = 40

# Relative agreement between a reported log-likelihood or BIC and its
# recomputation. Both evaluate the same sum in float64, so they agree to
# ~1e-13; the off-by-one-iterate error of a fit stopped at max_iters is
# ~1e-7 relative on sim2.
LOGLIK_RTOL = 1e-10
# Closed-form quantities (merged weights and concentrations) repeat the
# program's arithmetic up to summation order.
CLOSED_RTOL = 1e-12
# |sum_i w_i Log_mu(mu_i)| at a returned Frechet mean. The program stops when
# its fixed-step update moves the iterate by < 1e-9, i.e. a gradient ~2e-9.
FRECHET_TOL = 1e-7
# sim1 WL matrix against the closed form (values up to ~3.5; the seed-0
# matrix agrees to 8.9e-16).
WL_ATOL = 1e-12
# Monte-Carlo L2 entries against the exact value: relative error per pair.
# Today's estimator (about 2,048 uniform draws per pair) gives mean -0.0003,
# sd 0.021 and max 0.117 over the 79,800 sim1 pairs; an exact matrix gives 0.
L2_MEAN_TOL = 0.01
L2_SD_TOL = 0.05
L2_MAX_TOL = 0.25


class CheckFailed(Exception):
    """An output disagrees with its independent recomputation."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# --- shared maths -----------------------------------------------------------

def log_c(d: int, kappa: float) -> float:
    """log C_d(kappa) of the vMF density, by mpmath at 40 digits."""
    nu = mpmath.mpf(d) / 2 - 1
    k = mpmath.mpf(kappa)
    val = nu * mpmath.log(k) - (mpmath.mpf(d) / 2) * mpmath.log(2 * mpmath.pi) \
        - mpmath.log(mpmath.besseli(nu, k))
    return float(val)


def log_c2(kappa: np.ndarray) -> np.ndarray:
    """log C_2(kappa) = -log 2pi - log I_0(kappa), vectorised; C_2(0) = 1/2pi."""
    return -math.log(2.0 * math.pi) - np.log(ive(0, kappa)) - kappa


def load_mixture(path):
    """(weights, mus, kappas) arrays of a mixture JSON file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    comps = doc["components"]
    w = np.array([c["weight"] for c in comps], dtype=np.float64)
    mus = np.array([c["mu"] for c in comps], dtype=np.float64)
    kappas = np.array([c["kappa"] for c in comps], dtype=np.float64)
    require(doc.get("dim") == mus.shape[1], f"{path}: dim does not match the components")
    require(np.all(kappas > 0) and np.all(w > 0), f"{path}: non-positive weight or kappa")
    require(abs(w.sum() - 1.0) < 1e-9, f"{path}: weights sum to {w.sum()!r}")
    require(np.all(np.abs(np.linalg.norm(mus, axis=1) - 1.0) < 1e-9), f"{path}: mu off the sphere")
    return w, mus, kappas


def mixture_loglik(mix, points: np.ndarray) -> float:
    w, mus, kappas = mix
    logc = np.array([log_c(points.shape[1], k) for k in kappas])
    logp = np.log(w) + logc + kappas * (points @ mus.T)
    return float(logsumexp(logp, axis=1).sum())


def bic(loglik: float, k: int, d: int, n: int) -> float:
    return -2.0 * loglik + (k * (d + 1) - 1) * math.log(n)


def merged_kappa(w: np.ndarray, kappas: np.ndarray) -> float:
    """The WL barycenter concentration (sum_i w_i kappa_i^-1/2)^-2, w normalised."""
    return float(np.sum(w / w.sum() / np.sqrt(kappas))) ** -2


def frechet_gradient(mu: np.ndarray, w: np.ndarray, mus: np.ndarray) -> float:
    """|sum_i w_i Log_mu(mu_i)| with w normalised; zero at a Frechet mean."""
    cos = np.clip(mus @ mu, -1.0, 1.0)
    proj = mus - cos[:, None] * mu
    norms = np.linalg.norm(proj, axis=1)
    scale = np.where(norms > 0, np.arccos(cos) / np.where(norms > 0, norms, 1.0), 0.0)
    return float(np.linalg.norm((w / w.sum() * scale) @ proj))


def replay_trace(path, start, expect_events=None):
    """Replay a merge trace from the starting mixture, checking every event.

    Each event must carry the summed weight of its inputs, the closed-form
    concentration over them, and a direction that is their Frechet mean.
    Returns the final live list as (weight, mu, kappa, members) tuples, where
    members are indices into the starting mixture.
    """
    w0, mus0, k0 = start
    live = [(w0[i], mus0[i], k0[i], frozenset([i])) for i in range(w0.size)]
    events = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            ev = json.loads(line)
            require(ev["step"] == events, f"{path}: step {ev['step']} out of order")
            pos = ev["merged"]
            require(len(set(pos)) == len(pos) and all(0 <= p < len(live) for p in pos),
                    f"{path}: step {events} merges invalid positions {pos}")
            inputs = [live[p] for p in pos]
            w = np.array([c[0] for c in inputs])
            mus = np.array([c[1] for c in inputs])
            ks = np.array([c[2] for c in inputs])
            mu = np.array(ev["mu"], dtype=np.float64)
            require(close(ev["weight"], float(w.sum()), CLOSED_RTOL),
                    f"{path}: step {events} weight {ev['weight']!r} != {float(w.sum())!r}")
            require(close(ev["kappa"], merged_kappa(w, ks), CLOSED_RTOL),
                    f"{path}: step {events} kappa {ev['kappa']!r} != {merged_kappa(w, ks)!r}")
            grad = frechet_gradient(mu, w, mus)
            require(grad <= FRECHET_TOL, f"{path}: step {events} Frechet gradient {grad:.3g}")
            members = frozenset().union(*(c[3] for c in inputs))
            live = [c for i, c in enumerate(live) if i not in set(pos)]
            live.append((float(ev["weight"]), mu, float(ev["kappa"]), members))
            events += 1
    if expect_events is not None:
        require(events == expect_events, f"{path}: {events} events, expected {expect_events}")
    return live


def compare_final(live, mix, path) -> None:
    w, mus, kappas = mix
    require(len(live) == w.size, f"{path}: {w.size} components, trace leaves {len(live)}")
    for i, (lw, lmu, lk, _) in enumerate(live):
        require(close(lw, w[i], CLOSED_RTOL) and close(lk, kappas[i], CLOSED_RTOL)
                and np.max(np.abs(lmu - mus[i])) <= 1e-12,
                f"{path}: component {i} differs from the replayed trace")


# --- sim1 -------------------------------------------------------------------

def _read_table(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def _numbers(path, rows, cols, malformed: list) -> np.ndarray:
    """The given columns as floats. A cell written as a numpy scalar repr,
    such as ``np.float64(0.5)``, is not a CSV number: it is noted in
    ``malformed`` and read through, so the remaining checks still run."""
    out = np.empty((len(rows), len(cols)))
    bad = 0
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            try:
                out[i, j] = float(r[c])
            except ValueError:
                m = _NUMPY_REPR.fullmatch(r[c])
                if m is None:
                    raise CheckFailed(f"{path}: {c} = {r[c]!r} is not a number") from None
                out[i, j] = float(m.group(1))
                bad += 1
    if bad:
        malformed.append(f"{path}: {bad} cells of {', '.join(cols)} are numpy reprs "
                         f"such as {rows[0][cols[0]]!r}, not numbers")
    return out


def _check_embedding(path, dm: np.ndarray, labels: np.ndarray, malformed: list) -> None:
    rows = _read_table(path)
    coords = _numbers(path, rows, ["x", "y"], malformed)
    require(np.array_equal([int(r["label"]) for r in rows], labels), f"{path}: labels differ")
    sq = dm ** 2
    b = -0.5 * (sq - sq.mean(axis=0) - sq.mean(axis=1)[:, None] + sq.mean())
    n = b.shape[0]
    evals, evecs = eigh(b, subset_by_index=[n - 2, n - 1])
    evals, evecs = evals[::-1], evecs[:, ::-1]
    require(np.all(evals > 0), f"{path}: reference eigenvalues not positive")
    ref = evecs * np.sqrt(evals)
    scale = float(np.abs(ref).max())
    for j in range(2):
        sign = 1.0 if coords[:, j] @ ref[:, j] >= 0 else -1.0
        err = float(np.abs(sign * coords[:, j] - ref[:, j]).max())
        require(err <= 1e-8 * scale, f"{path}: axis {j} off the top eigenpair by {err:.3g}")


def check_sim1(out: str) -> None:
    malformed = []
    try:
        _check_sim1_values(out, malformed)
    except CheckFailed as err:
        malformed.append(str(err))
    require(not malformed, "; ".join(malformed))


def _check_sim1_values(out: str, malformed: list) -> None:
    path = os.path.join(out, "params.csv")
    rows = _read_table(path)
    labels = np.array([int(r["label"]) for r in rows])
    mus = _numbers(path, rows, ["mu_0", "mu_1"], malformed)
    kappas = _numbers(path, rows, ["kappa"], malformed)[:, 0]
    require(len(rows) == 400 and np.array_equal(np.bincount(labels), [100] * 4),
            "params.csv: expected 100 laws in each of 4 cells")

    wl = np.loadtxt(os.path.join(out, "wl_matrix.csv"), delimiter=",", ndmin=2)
    l2 = np.loadtxt(os.path.join(out, "l2_matrix.csv"), delimiter=",", ndmin=2)
    for name, m in (("wl_matrix.csv", wl), ("l2_matrix.csv", l2)):
        require(m.shape == (400, 400), f"{name}: shape {m.shape}")
        require(np.array_equal(m, m.T), f"{name}: not exactly symmetric")
        require(np.all(np.diag(m) == 0.0), f"{name}: nonzero diagonal")

    ang = np.arccos(np.clip(mus @ mus.T, -1.0, 1.0))
    s = 1.0 / np.sqrt(kappas)
    wl_ref = np.sqrt(ang ** 2 + (s[:, None] - s[None, :]) ** 2)
    np.fill_diagonal(wl_ref, 0.0)
    err = float(np.abs(wl - wl_ref).max())
    require(err <= WL_ATOL, f"wl_matrix.csv: off the closed form by {err:.3g}")

    # int f_p f_q = C(kp) C(kq) / C(|kp mu_p + kq mu_q|) on the circle.
    lc = log_c2(kappas)
    self_term = np.exp(2.0 * lc - log_c2(2.0 * kappas))
    resultant = np.linalg.norm((kappas[:, None] * mus)[:, None, :]
                               + (kappas[:, None] * mus)[None, :, :], axis=2)
    cross = np.exp(lc[:, None] + lc[None, :] - log_c2(resultant))
    l2_ref = np.sqrt(np.maximum(self_term[:, None] + self_term[None, :] - 2.0 * cross, 0.0))
    iu = np.triu_indices(400, k=1)
    rel = l2[iu] / l2_ref[iu] - 1.0
    require(abs(rel.mean()) <= L2_MEAN_TOL and rel.std() <= L2_SD_TOL
            and np.abs(rel).max() <= L2_MAX_TOL,
            f"l2_matrix.csv: relative error mean {rel.mean():.4f} sd {rel.std():.4f} "
            f"max {np.abs(rel).max():.4f} against the closed form")

    _check_embedding(os.path.join(out, "wl_embedding.csv"), wl, labels, malformed)
    _check_embedding(os.path.join(out, "l2_embedding.csv"), l2, labels, malformed)

    purity = {r["metric"]: float(r["purity"]) for r in _read_table(os.path.join(out, "purity.csv"))}
    for name in ("wl", "l2"):
        require(abs(purity[name] * 400 - round(purity[name] * 400)) < 1e-9,
                f"purity.csv: {name} purity {purity[name]!r} is not a count over 400")
    require(purity["wl"] >= 0.95, f"purity.csv: wl purity {purity['wl']} < 0.95")
    require(purity["wl"] > purity["l2"], f"purity.csv: wl purity {purity['wl']} <= l2 {purity['l2']}")


# --- sim2 -------------------------------------------------------------------

SIM2_METHODS = ("greedy", "hclust", "kmedoids")


def check_sim2(out: str) -> None:
    raw = np.loadtxt(os.path.join(out, "samples.csv"), delimiter=",", ndmin=2)
    require(raw.shape == (400, 3), f"samples.csv: shape {raw.shape}")
    points = raw[:, :2]
    n = points.shape[0]
    table = {int(r["k"]): r for r in _read_table(os.path.join(out, "bic.csv"))}
    require(sorted(table) == list(range(2, 11)), "bic.csv: expected rows k = 2..10")

    base = load_mixture(os.path.join(out, "fitted_k10.json"))
    require(base[0].size == 10 and base[1].shape[1] == 2, "fitted_k10.json: expected 10 laws on the circle")
    want = bic(mixture_loglik(base, points), 10, 2, n)
    for col in ("fitted",) + SIM2_METHODS:
        got = float(table[10][col])
        require(close(got, want, LOGLIK_RTOL), f"bic.csv: k=10 {col} {got!r} != {want!r}")

    for method in SIM2_METHODS:
        path = os.path.join(out, f"reduced_{method}_k4.json")
        mix = load_mixture(path)
        require(mix[0].size == 4, f"{path}: {mix[0].size} components")
        want = bic(mixture_loglik(mix, points), 4, 2, n)
        got = float(table[4][method])
        require(close(got, want, LOGLIK_RTOL), f"bic.csv: k=4 {method} {got!r} != {want!r}")
        trace = os.path.join(out, f"trace_{method}_k4.jsonl")
        live = replay_trace(trace, base, expect_events=6 if method == "greedy" else 4)
        compare_final(live, mix, path)


# --- mix768 -----------------------------------------------------------------

class Mix768Inputs:
    """The generated inputs of one mix768 run, loaded once for all checks."""

    def __init__(self, inputs_dir: str):
        self.samples = np.loadtxt(os.path.join(inputs_dir, "samples.csv"), delimiter=",", ndmin=2)
        self.start = load_mixture(os.path.join(inputs_dir, "mix300.json"))
        with open(os.path.join(inputs_dir, "truth.json"), encoding="utf-8") as fh:
            truth = json.load(fh)
        labels = np.array(truth["labels"])
        self.clusters = [frozenset(np.nonzero(labels == c)[0].tolist())
                         for c in range(truth["clusters"])]


def check_fit(inputs: Mix768Inputs, k: int, out: str) -> None:
    mix = load_mixture(os.path.join(out, "fit.json"))
    n, d = inputs.samples.shape
    require(mix[0].size == k and mix[1].shape[1] == d, f"fit.json: expected {k} components in R^{d}")
    with open(os.path.join(out, "fit_meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    ll = mixture_loglik(mix, inputs.samples)
    require(close(meta["loglik"], ll, LOGLIK_RTOL),
            f"fit_meta.json: loglik {meta['loglik']!r} != {ll!r} recomputed on fit.json")
    want = bic(ll, k, d, n)
    require(close(meta["bic"], want, LOGLIK_RTOL), f"fit_meta.json: bic {meta['bic']!r} != {want!r}")


def check_reduction(inputs: Mix768Inputs, method: str, out: str) -> None:
    path = os.path.join(out, f"reduced_{method}.json")
    mix = load_mixture(path)
    live = replay_trace(os.path.join(out, f"trace_{method}.jsonl"), inputs.start)
    compare_final(live, mix, path)
    w0, _, k0 = inputs.start
    require(len(live) == len(inputs.clusters) and {c[3] for c in live} == set(inputs.clusters),
            f"{path}: merged groups are not the generator's clusters")
    for weight, _, kappa, members in live:
        idx = np.array(sorted(members))
        require(close(weight, float(w0[idx].sum()), CLOSED_RTOL), f"{path}: weight is not the cluster sum")
        require(close(kappa, merged_kappa(w0[idx], k0[idx]), CLOSED_RTOL),
                f"{path}: kappa is not the closed form over the cluster")


def mix768_checks(inputs_dir: str, fit_k: int):
    inputs = Mix768Inputs(inputs_dir)
    return [partial(check_fit, inputs, fit_k)] + [
        partial(check_reduction, inputs, m) for m in SIM2_METHODS]
