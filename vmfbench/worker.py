"""The measured process of one benchmark run: a fresh interpreter.

    python3 vmfbench/worker.py --ready       import vmfgeom.cli, print "ready"
    python3 vmfbench/worker.py PLAN.json     run the plan's commands in rounds

A plan lists ``vmfgeom`` command lines (``{out}`` stands for the round's
output directory). Each round runs them one after another through
``vmfgeom.cli.main`` and is timed as a whole; rounds repeat until
``seconds`` have passed, at least once. The result (per-round start and end
on the monotonic clock, exit codes, peak RSS, and with ``trace`` the
per-layer spans) goes to the plan's ``result`` file, because the commands
themselves print to stdout.
"""

import json
import os
import resource
import sys
import time
import traceback


def _run(main, argv) -> int:
    try:
        return int(main(argv) or 0)
    except SystemExit as err:  # argparse rejects the command line
        return err.code if isinstance(err.code, int) else 2
    except Exception:  # an uncaught error fails this command only
        traceback.print_exc()
        return 1


def run_plan(plan: dict) -> dict:
    import vmfgeom.cli

    tracer = None
    if plan["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    main = vmfgeom.cli.main

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < plan["seconds"]:
        out = os.path.join(plan["work"], f"round_{len(rounds)}")
        os.makedirs(out)
        argvs = [[a.replace("{out}", out) for a in argv] for argv in plan["commands"]]
        t0 = time.perf_counter()
        codes = [_run(main, argv) for argv in argvs]
        t1 = time.perf_counter()
        rounds.append({"out": out, "start": t0, "end": t1, "codes": codes,
                       "layers": tracer.take() if tracer else None})
    if tracer:
        tracer.write(os.path.join(plan["work"], "spans.json"),
                     [r["layers"]["spans"] for r in rounds])
    return {"rounds": rounds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "vmfgeom": os.path.abspath(vmfgeom.cli.__file__)}


def main() -> int:
    if sys.argv[1:] == ["--ready"]:
        import vmfgeom.cli  # noqa: F401  (the import is what is timed)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    result = run_plan(plan)
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
