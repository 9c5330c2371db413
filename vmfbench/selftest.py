"""Show that each output check rejects a deliberately corrupted output.

    python3 vmfbench/selftest.py

Run from the checkout root after one run of each workload, for example
``python3 vmfbench/run.py --workload sim1 --seed 0 --seconds 1 --trace 0``;
it reads the outputs that run left in ``vmfbench/work/<workload>/round_0``.
For every workload found there, every corrupted copy (one matrix entry, one
kappa, one weight, one BIC value, ...) must fail a check that the untouched
outputs pass. Exits 1 if a corruption goes unnoticed.
"""

import csv
import json
import os
import shutil
import sys

import numpy as np

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, "work")


def edit_json(name, fn):
    def apply(out):
        path = os.path.join(out, name)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        fn(doc)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return apply


def edit_jsonl(name, step, fn):
    def apply(out):
        path = os.path.join(out, name)
        with open(path, encoding="utf-8") as fh:
            events = [json.loads(line) for line in fh]
        fn(events[step])
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(ev) + "\n" for ev in events)
    return apply


def edit_matrix(name, fn):
    def apply(out):
        path = os.path.join(out, name)
        m = np.loadtxt(path, delimiter=",", ndmin=2)
        fn(m)
        np.savetxt(path, m, delimiter=",", fmt="%.17g")
    return apply


def edit_table(name, row, col, fn):
    def apply(out):
        path = os.path.join(out, name)
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            fields, rows = reader.fieldnames, list(reader)
        value = float(checks._NUMPY_REPR.sub(r"\1", rows[row][col]))
        rows[row][col] = repr(fn(value))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    return apply


def _add(m, i, j, delta, both=True):
    m[i, j] += delta
    if both:
        m[j, i] = m[i, j]


def _scale_kappa(factor, index=0):
    def fn(doc):
        doc["components"][index]["kappa"] *= factor
    return fn


def _shift_weight(delta):
    def fn(doc):  # keeps the weights summing to 1
        doc["components"][0]["weight"] += delta
        doc["components"][1]["weight"] -= delta
    return fn


def _turn_mu(ev):
    mu = np.array(ev["mu"])
    mu[-1] += 1e-4
    ev["mu"] = (mu / np.linalg.norm(mu)).tolist()


def sim1_cases():
    return [
        ("one WL entry", edit_matrix("wl_matrix.csv", lambda m: _add(m, 3, 7, 1e-6, both=False))),
        ("one WL entry and its mirror", edit_matrix("wl_matrix.csv", lambda m: _add(m, 3, 7, 1e-6))),
        ("one L2 entry and its mirror", edit_matrix("l2_matrix.csv", lambda m: _add(m, 5, 250, 2 * m[5, 250]))),
        ("one kappa", edit_table("params.csv", 10, "kappa", lambda v: v * 1.01)),
        ("one embedding coordinate", edit_table("wl_embedding.csv", 0, "x", lambda v: v + 1e-3)),
        ("WL purity", edit_table("purity.csv", 0, "purity", lambda v: 0.94)),
    ], [checks.check_sim1]


def sim2_cases():
    return [
        ("one BIC value", edit_table("bic.csv", 2, "greedy", lambda v: v + 0.01)),
        ("one fitted kappa", edit_json("fitted_k10.json", _scale_kappa(1 + 1e-6))),
        ("one reduced weight", edit_json("reduced_hclust_k4.json", _shift_weight(1e-6))),
        ("one trace kappa", edit_jsonl("trace_greedy_k4.jsonl", 0, lambda ev: ev.update(kappa=ev["kappa"] * (1 + 1e-9)))),
    ], [checks.check_sim2]


def mix768_cases():
    ops = checks.mix768_checks(os.path.join(WORK, "mix768", "inputs"), inputs.FIT_K)
    return [
        ("one BIC value", edit_json("fit_meta.json", lambda d: d.update(bic=d["bic"] + 1.0))),
        ("one fitted kappa", edit_json("fit.json", _scale_kappa(1.001))),
        ("one reduced kappa", edit_json("reduced_kmedoids.json", _scale_kappa(1 + 1e-9, 2))),
        ("one reduced weight", edit_json("reduced_greedy.json", _shift_weight(1e-9))),
        ("one merged direction", edit_jsonl("trace_hclust.jsonl", 1, _turn_mu)),
    ], ops


def run_all(checks_list, out) -> list:
    """Failure messages of all checks, with the directory name taken out."""
    errors = []
    for check in checks_list:
        try:
            check(out)
        except checks.CheckFailed as err:
            errors.append(str(err).replace(out, "<out>"))
    return errors


def main() -> int:
    bad = 0
    seen = 0
    for workload, cases in (("sim1", sim1_cases), ("sim2", sim2_cases), ("mix768", mix768_cases)):
        src = os.path.join(WORK, workload, "round_0")
        if not os.path.isdir(src):
            print(f"skip {workload}: no outputs in {src}")
            continue
        seen += 1
        case_list, checks_list = cases()
        baseline = run_all(checks_list, src)
        if baseline:  # a fault of the program; corruptions must still add a failure
            print(f"note {workload} untouched outputs already fail: {baseline}")
        for label, corrupt in case_list:
            copy = os.path.join(WORK, "selftest", workload)
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(src, copy)
            corrupt(copy)
            errors = run_all(checks_list, copy)
            new = [e for e in errors if e not in baseline]
            print(f"{'ok  ' if new else 'BAD '} {workload} {label} rejected: "
                  f"{new[0][-120:] if new else 'no new failure'}")
            bad += not new
        shutil.rmtree(os.path.join(WORK, "selftest"), ignore_errors=True)
    if not seen:
        print("no workload outputs found; run each workload once first")
        return 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
