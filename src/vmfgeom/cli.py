"""Command-line surface: one binary, one subcommand per operation.

Exit codes: 0 on success, 2 on usage or input errors, 3 on numerical
failures inside an algorithm (a reduction forced to merge antipodal
components, or a RuntimeError such as a failed concentration solve).
Non-convergence of iterative fits is not a failure; it is reported through
metadata with exit 0.
"""

import argparse
import contextlib
import json
import os
import sys
import warnings

from . import formats
from .barycenter import barycenter
from .core import VmfMixture, sample_mixture
from .experiments import ExperimentConfig, run_experiment
from .fit_eval import FitConfig, fit_em, mds_embed
from .geometry import AntipodalMeansError, l2_distance, wl_distance, wl_interpolate
from .reduction import greedy_reduce, partitional_reduce

_FMT = "%.17g"


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load(read, path, **kwargs):
    """read(path, **kwargs), with an input error naming the file."""
    try:
        return read(path, **kwargs)
    except (ValueError, OSError) as err:
        raise CliError(2, f"{path}: {err}") from err


@contextlib.contextmanager
def _removed_on_error(path):
    """Removes path, a command's first output, if writing its second fails."""
    try:
        yield
    except BaseException:
        os.remove(path)
        raise


def _read_law(path):
    return formats.single_component(formats.read_mixture(path))


def _cmd_dist(args) -> None:
    a, b = _load(_read_law, args.a), _load(_read_law, args.b)
    value = wl_distance(a, b) if args.metric == "wl" else l2_distance(a, b)
    print(_FMT % value)


def _cmd_barycenter(args) -> None:
    m = _load(formats.read_mixture, args.mixture)
    try:
        result = barycenter(m.components, m.weights)
    except (AntipodalMeansError, ValueError) as err:
        raise CliError(2, f"barycenter undefined for this input: {err}") from err
    out = VmfMixture(components=(result.params,), weights=[1.0])
    formats.write_mixture(args.output, out)
    if args.meta:
        with _removed_on_error(args.output), open(args.meta, "w", encoding="utf-8") as fh:
            json.dump({"iterations": result.iterations,
                       "final_change": result.final_change,
                       "converged": result.converged}, fh, indent=2)
            fh.write("\n")
    if not result.converged:
        print(f"warning: barycenter did not converge in {result.iterations} iterations",
              file=sys.stderr)


def _cmd_reduce(args) -> None:
    m = _load(formats.read_mixture, args.mixture)
    if args.k >= m.k:
        raise CliError(2, f"--k must be below the component count ({m.k})")
    try:
        if args.method == "greedy":
            reduced, trace = greedy_reduce(m, args.k)
        else:
            reduced, trace = partitional_reduce(m, args.k, method=args.method, seed=args.seed)
    except AntipodalMeansError as err:
        raise CliError(3, f"reduction aborted: {err}") from err
    formats.write_mixture(args.output, reduced)
    if args.trace:
        with _removed_on_error(args.output):
            formats.write_trace(args.trace, trace)


def _cmd_fit(args) -> None:
    data = _load(formats.read_samples, args.samples, header=args.header)
    result = fit_em(data, FitConfig(k=args.k, restarts=args.restarts, seed=args.seed))
    formats.write_mixture(args.output, result.mixture)
    with _removed_on_error(args.output):
        formats.write_fit_metadata(args.meta, result)
    if not result.converged:
        print(f"warning: EM did not converge in {result.iterations} iterations", file=sys.stderr)


def _cmd_sample(args) -> None:
    m = _load(formats.read_mixture, args.mixture)
    if args.n < 1:
        raise CliError(2, "--n must be >= 1")
    s = sample_mixture(m, args.n, seed=args.seed)
    formats.write_samples(args.output, s, header=args.header)


def _cmd_interpolate(args) -> None:
    a, b = _load(_read_law, args.a), _load(_read_law, args.b)
    if args.steps < 1:
        raise CliError(2, "--steps must be >= 1")
    try:  # a pair with no geodesic, or no unique one, is refused before any output
        wl_interpolate(a, b, 0.5)
    except AntipodalMeansError as err:
        raise CliError(2, f"no unique geodesic: {err}") from err
    os.makedirs(args.output_dir, exist_ok=True)
    for i in range(args.steps + 1):
        p = wl_interpolate(a, b, i / args.steps)
        out = VmfMixture(components=(p,), weights=[1.0])
        formats.write_mixture(os.path.join(args.output_dir, f"interp_{i:03d}.json"), out)


def _cmd_embed(args) -> None:
    dm = _load(formats.read_distance_matrix, args.matrix)
    result = mds_embed(dm, dim=args.dim)
    formats.write_coordinates(args.output, result.coords)
    if result.padded:
        print(f"warning: only {result.n_positive} positive eigenvalues; "
              "remaining columns are zero", file=sys.stderr)


def _cmd_experiment(args) -> None:
    cfg = ExperimentConfig(scenario=args.scenario, seed=args.seed, output_dir=args.out)
    summary = run_experiment(cfg)
    for key, value in summary.items():
        print(f"{key}: {value}")


def _seed(text: str) -> int:
    """A --seed value: numpy's seed sequences take only non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmfgeom",
        description="Wasserstein-like geometry on von Mises-Fisher distributions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="distance between two single-component mixture files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--metric", choices=["wl", "l2"], default="wl")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("barycenter", help="barycenter of a mixture file under its weights")
    p.add_argument("mixture")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--meta", help="optional diagnostics JSON")
    p.set_defaults(func=_cmd_barycenter)

    p = sub.add_parser("reduce", help="reduce a mixture to --k components")
    p.add_argument("mixture")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=["greedy", "hclust", "kmedoids"], default="greedy")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--trace", help="write merge events as JSON lines")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("fit", help="fit a vMF mixture to a sample CSV by EM")
    p.add_argument("samples")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--header", action="store_true", help="sample CSV has a header row")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--meta", required=True, help="metadata JSON output")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("sample", help="draw labeled samples from a mixture file")
    p.add_argument("mixture")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--header", action="store_true", help="write a header row")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("interpolate", help="geodesic path between two laws")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--steps", type=int, required=True,
                   help="writes steps+1 files at t = 0, 1/steps, ..., 1")
    p.add_argument("-o", "--output-dir", required=True)
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("embed", help="classical MDS embedding of a distance matrix CSV")
    p.add_argument("matrix")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("experiment", help="run a built-in synthetic experiment")
    p.add_argument("--scenario", choices=["sim1", "sim2"], required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A library warning as one line like the CLI's own, without its source."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # an in-process caller gets its own display back
        warnings.showwarning = _show_warning
        try:
            args.func(args)
        except CliError as err:
            print(f"error: {err}", file=sys.stderr)
            return err.code
        except (ValueError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        except RuntimeError as err:
            print(f"error: {err}", file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
