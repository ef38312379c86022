"""Quick self-check of the benchmark; not part of the test suite.

    python3 benchmarks/selfcheck.py

1. Runs every workload in BENCHMARK.json for one second, untraced and
   traced, and confirms that each prints correct results with no failed op
   and exactly the metric names and units that BENCHMARK.json lists.
2. Feeds each workload's output check a deliberately wrong result, one
   fault at a time, and confirms that the check rejects every one.

Exits 0 when everything holds, 1 otherwise.  Takes about two minutes.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)


def run_metrics(spec: dict) -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            cmd = [*spec["command"], "--workload", w["name"], "--seed", "1", "--seconds", "1"]
            proc = subprocess.run(
                [sys.executable if cmd[0] == "python3" else cmd[0], *cmd[1:], "--trace", str(trace)],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=180,
            )
            tag = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            print(f"ran {tag}: {result['attempted']} ops", flush=True)
    return problems


# -- deliberately wrong outputs ---------------------------------------------------


def verify_faults(out):
    code, text, ledger = out
    bad_ledger = copy.deepcopy(ledger)
    bad_ledger[0]["verdict"] = "paper_literal_adopted"
    short_ledger = copy.deepcopy(ledger)
    del short_ledger[-1]["oracle"]
    yield "exit code 1", (1, text, ledger)
    yield "a FAIL line", (code, text.replace("PASS ", "FAIL ", 1), ledger)
    yield "no coverage line", (
        code,
        "\n".join(ln for ln in text.splitlines() if "coverage-registry" not in ln),
        ledger,
    )
    yield "a ledger verdict", (code, text, bad_ledger)
    yield "a ledger field missing", (code, text, short_ledger)


def counts_faults(out):
    def changed(fn):
        bad = copy.deepcopy(out)
        fn(bad[0])
        return bad

    def set_table(p, value):
        p[0][2][5] = value

    yield "a pmf above 1", changed(lambda p: set_table(p, 1.5))
    yield "a pmf off by 1e-7", changed(lambda p: set_table(p, p[0][2][5] + 1e-7))
    yield "posterior means out of order", changed(lambda p: p[1][0].__setitem__(3, p[1][0][2]))
    yield "a posterior mean off by 1e-6", changed(lambda p: p[1][1].__setitem__(60, p[1][1][60] * (1 + 1e-6)))
    yield "an ordered pmf off by 1e-6", changed(lambda p: p[2][0].__setitem__(5, p[2][0][5] * (1 + 1e-6)))
    yield "an Erlang density off by 1e-6", changed(lambda p: p[3].__setitem__(17, p[3][17] * (1 + 1e-6)))


def paths_faults(out):
    (paths, counts), second = out
    i = next(k for k, p in enumerate(paths) if len(p.events) >= 2)

    def with_path(k, events, row=None):
        new_paths = list(paths)
        new_paths[k] = dataclasses.replace(paths[k], events=events)
        new_counts = list(counts)
        if row is not None:
            new_counts[k] = row
        return [(new_paths, new_counts), second]

    ev = paths[i].events
    yield "events out of order", with_path(i, [ev[1], ev[0], *ev[2:]])
    yield "an event past the horizon", with_path(i, [*ev[:-1], paths[i].horizon * 1.01])
    yield "count_at disagreeing", with_path(i, ev, [c + 1 for c in counts[i]])
    # Empty the first fifth of the paths: counts stay consistent, but
    # P(N(t) = 0) and the mean of N(t) move by far more than 5 standard errors.
    cut = len(paths) // 5
    empty = [dataclasses.replace(p, events=[]) for p in paths[:cut]]
    yield "too many empty paths", [
        (empty + paths[cut:], [[0] * len(c) for c in counts[:cut]] + counts[cut:]),
        second,
    ]


def fit_faults(out, inputs):
    from workloads import trimmed_objective

    import numpy as np

    def changed(k, **fields):
        bad = list(out)
        bad[k] = dataclasses.replace(out[k], **fields)
        return bad

    yield "a off by 10%", changed(0, a=out[0].a * 1.1)
    yield "lambda off by 10%", changed(1, lam=out[1].lam * 1.1)
    other = next(c for c in out[2].candidates if c != (out[2].a, out[2].lam))
    yield "the other root of an ambiguous ratio", changed(2, a=other[0], lam=other[1])
    yield "an ambiguous fit with one candidate", changed(2, candidates=out[2].candidates[:1])
    x = np.sort(inputs["samples"][-1])
    _, kept_max = trimmed_objective(x, out[-1].a, out[-1].lam)
    yield "fallback a below the retained maximum", changed(3, a=kept_max * 0.9)
    worse = dict(a=out[-1].a * 3.0, lam=out[-1].lam * 3.0)
    worse["objective"] = trimmed_objective(x, worse["a"], worse["lam"])[0]
    yield "a fallback objective worse than its start", changed(3, **worse)
    yield "a fallback on another branch", changed(3, warnings=[])


def fault_checks() -> list[str]:
    from workloads import WORKLOADS

    problems = []
    for name, workload in WORKLOADS.items():
        inputs = workload.setup(1, os.path.join(ROOT, ".bench_out"))
        out = workload.op(inputs)
        first = workload.check(inputs, out)
        if first:
            problems.append(f"{name}: the true output fails its check: {first[:2]}")
        faults = {
            "verify": lambda: verify_faults(out),
            "counts": lambda: counts_faults(out),
            "paths": lambda: paths_faults(out),
            "fit": lambda: fit_faults(out, inputs),
        }[name]()
        for label, bad in faults:
            caught = workload.check(inputs, bad)
            print(f"{name}: {label}: {'rejected' if caught else 'NOT rejected'}", flush=True)
            if not caught:
                problems.append(f"{name}: check accepted {label}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    problems = fault_checks() + run_metrics(spec)
    for p in problems:
        print(f"PROBLEM: {p}")
    print("self-check passed" if not problems else f"self-check failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
