"""Span tracing of vmfgeom from outside the package.

``Tracer.install`` replaces each public function named in ``TARGETS`` by a
timing wrapper in every vmfgeom module namespace that binds it, so calls
made through any import path are seen. A span records its name, start, end
and the span that caused it. Hot leaves (called up to millions of times)
are only aggregated by (name, parent name); every other span is also kept
individually. Everything stays in memory until ``write`` at the end.

A layer's self time is its span's duration minus the time covered by its
child spans. If a later change renames or removes a target, that target is
skipped and its metrics are reported as absent (None).
"""

import functools
import importlib
import json
import sys
import time

# (span name, module, attribute, hot, bind only in the home module)
TARGETS = (
    ("cli.main", "cli", "main", False, False),
    ("experiments.run_experiment", "experiments", "run_experiment", False, False),
    ("bessel.log_bessel_i", "bessel", "log_bessel_i", True, False),
    ("bessel.log_bessel_i_ratio", "bessel", "log_bessel_i_ratio", True, False),
    ("core.log_normalizing_constant", "core", "log_normalizing_constant", True, False),
    ("core.sample_mixture", "core", "sample_mixture", False, False),
    ("geometry.l2_distance_mc", "geometry", "l2_distance_mc", True, False),
    ("geometry.pairwise_matrix", "geometry", "pairwise_matrix", False, False),
    ("geometry.wl_distance", "geometry", "wl_distance", True, False),
    ("fit_eval.kappa_mle", "fit_eval", "kappa_mle", True, False),
    # scipy's logsumexp as bound in fit_eval only; bessel binds it too.
    ("fit_eval.logsumexp", "fit_eval", "logsumexp", True, True),
    ("fit_eval.fit_em", "fit_eval", "fit_em", False, False),
    ("fit_eval.mixture_log_likelihood", "fit_eval", "mixture_log_likelihood", False, False),
    ("fit_eval.mds_embed", "fit_eval", "mds_embed", False, False),
    ("reduction.hclust_single_linkage", "reduction", "hclust_single_linkage", False, False),
    ("reduction.greedy_reduce", "reduction", "greedy_reduce", False, False),
    ("reduction.partitional_reduce", "reduction", "partitional_reduce", False, False),
    ("reduction.kmedoids", "reduction", "kmedoids", False, False),
    ("barycenter.frechet_mean", "barycenter", "frechet_mean", False, False),
    ("formats.read_mixture", "formats", "read_mixture", False, False),
    ("formats.read_samples", "formats", "read_samples", False, False),
    ("formats.read_distance_matrix", "formats", "read_distance_matrix", False, False),
    ("formats.write_mixture", "formats", "write_mixture", False, False),
    ("formats.write_samples", "formats", "write_samples", False, False),
    ("formats.write_distance_matrix", "formats", "write_distance_matrix", False, False),
    ("formats.write_trace", "formats", "write_trace", False, False),
    ("formats.write_fit_metadata", "formats", "write_fit_metadata", False, False),
    ("formats.write_coordinates", "formats", "write_coordinates", False, False),
)

# Per-layer metrics reported by a traced run: name -> (kind, spans). Kinds:
# "calls" and "self_s" sum over the spans; "iterations" and "nonconverged"
# sum the counters read from the returned results.
LAYER_METRICS = {
    "geometry.l2_distance_mc.calls": ("calls", ["geometry.l2_distance_mc"]),
    "geometry.l2_distance_mc.self_s": ("self_s", ["geometry.l2_distance_mc"]),
    "geometry.pairwise_matrix.self_s": ("self_s", ["geometry.pairwise_matrix"]),
    "geometry.wl_distance.calls": ("calls", ["geometry.wl_distance"]),
    "geometry.wl_distance.self_s": ("self_s", ["geometry.wl_distance"]),
    "bessel.log_bessel_i.calls": ("calls", ["bessel.log_bessel_i"]),
    "bessel.log_bessel_i.self_s": ("self_s", ["bessel.log_bessel_i"]),
    "core.log_normalizing_constant.self_s": ("self_s", ["core.log_normalizing_constant"]),
    "bessel.log_bessel_i_ratio.calls": ("calls", ["bessel.log_bessel_i_ratio"]),
    "bessel.log_bessel_i_ratio.self_s": ("self_s", ["bessel.log_bessel_i_ratio"]),
    "fit_eval.kappa_mle.calls": ("calls", ["fit_eval.kappa_mle"]),
    "fit_eval.kappa_mle.self_s": ("self_s", ["fit_eval.kappa_mle"]),
    "fit_eval.logsumexp.calls": ("calls", ["fit_eval.logsumexp"]),
    "fit_eval.logsumexp.self_s": ("self_s", ["fit_eval.logsumexp"]),
    "fit_eval.fit_em.calls": ("calls", ["fit_eval.fit_em"]),
    "fit_eval.fit_em.self_s": ("self_s", ["fit_eval.fit_em"]),
    "fit_eval.fit_em.iterations": ("iterations", ["fit_eval.fit_em"]),
    "fit_eval.mixture_log_likelihood.self_s": ("self_s", ["fit_eval.mixture_log_likelihood"]),
    "core.sample_mixture.self_s": ("self_s", ["core.sample_mixture"]),
    "fit_eval.mds_embed.self_s": ("self_s", ["fit_eval.mds_embed"]),
    "reduction.hclust_single_linkage.self_s": ("self_s", ["reduction.hclust_single_linkage"]),
    "reduction.greedy_reduce.self_s": ("self_s", ["reduction.greedy_reduce"]),
    "reduction.partitional_reduce.self_s": ("self_s", ["reduction.partitional_reduce"]),
    "reduction.kmedoids.self_s": ("self_s", ["reduction.kmedoids"]),
    "barycenter.frechet_mean.calls": ("calls", ["barycenter.frechet_mean"]),
    "barycenter.frechet_mean.self_s": ("self_s", ["barycenter.frechet_mean"]),
    "barycenter.frechet_mean.iterations": ("iterations", ["barycenter.frechet_mean"]),
    "barycenter.frechet_mean.nonconverged": ("nonconverged", ["barycenter.frechet_mean"]),
    "formats.read_s": ("self_s", [t[0] for t in TARGETS if t[0].startswith("formats.read_")]),
    "formats.write_s": ("self_s", [t[0] for t in TARGETS if t[0].startswith("formats.write_")]),
    "experiments.run_experiment.self_s": ("self_s", ["experiments.run_experiment"]),
    "cli.main.self_s": ("self_s", ["cli.main"]),
}


_COUNTED = ("fit_eval.fit_em", "barycenter.frechet_mean")


def _result_counters(result):
    """Counters read from a FitResult or FrechetMeanResult, or None if the
    result no longer carries them."""
    it = getattr(result, "iterations", None)
    conv = getattr(result, "converged", None)
    if it is None or conv is None:
        return None
    return {"iterations": int(it), "nonconverged": int(not conv)}


class Tracer:
    def __init__(self):
        self._stack = []    # open frames: [name, child seconds, span id]
        self._agg = {}      # (name, parent name) -> [calls, seconds, self seconds]
        self._counters = {}  # (name, counter) -> total
        self.spans = []     # cold spans: (id, name, start, end, parent id)
        self.installed = set()

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "vmfgeom" or n.startswith("vmfgeom."))]
        for name, mod_name, attr, hot, home_only in TARGETS:
            try:
                home = importlib.import_module(f"vmfgeom.{mod_name}")
            except ImportError:
                continue
            orig = getattr(home, attr, None)
            if not callable(orig):
                continue
            wrapper = self._wrap(name, orig, hot)
            for mod in ([home] if home_only else modules):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
            self.installed.add(name)

    def _wrap(self, name, fn, hot):
        stack, agg, spans, counters = self._stack, self._agg, self.spans, self._counters
        clock = time.perf_counter
        counted = name in _COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = parent[2] if hot and parent else (None if hot else len(spans))
            if not hot:
                spans.append(None)  # reserve the id; filled on exit
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                key = (name, parent[0] if parent else None)
                row = agg.get(key)
                if row is None:
                    row = agg[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if not hot:
                    spans[span_id] = (span_id, name, start, end, parent[2] if parent else None)
            if counted:
                extra = _result_counters(result)
                if extra is None:
                    counters[(name, "absent")] = 1
                for counter, value in (extra or {}).items():
                    counters[(name, counter)] = counters.get((name, counter), 0) + value
            return result

        return wrapper

    def take(self) -> dict:
        """Per-layer metrics accumulated since the last take; then reset."""
        out = {}
        for metric, (kind, names) in LAYER_METRICS.items():
            if not all(n in self.installed for n in names):
                out[metric] = None
            elif kind in ("calls", "self_s"):
                col = 0 if kind == "calls" else 2
                out[metric] = sum(row[col] for (n, _), row in self._agg.items() if n in names)
            elif any((n, "absent") in self._counters for n in names):
                out[metric] = None
            else:
                out[metric] = sum(self._counters.get((n, kind), 0) for n in names)
        out["spans"] = [{"name": n, "parent": p, "calls": r[0], "seconds": r[1], "self_s": r[2]}
                        for (n, p), r in sorted(self._agg.items(), key=lambda kv: -kv[1][2])]
        self._agg.clear()
        self._counters.clear()
        return out

    def write(self, path: str, aggregates) -> None:
        """Write the individual cold spans and the per-round aggregates."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(("id", "name", "start", "end", "parent"), s))
                                 for s in self.spans],
                       "aggregated": aggregates}, fh)
