"""One benchmark process: set up a workload, warm up, then run ops in a closed loop.

    python3 benchmarks/worker.py MODE WORKLOAD SEED SECONDS SCRATCH_DIR

MODE is ``setup`` (stop at the first timed op), ``run`` (time ops for
SECONDS) or ``trace`` (alternate traced and untraced ops for SECONDS).
``run.py`` starts this file in a fresh interpreter so that set-up time
includes every import; it prints one JSON object as its last line.

Only the standard library is imported before the workload's own set-up:
numpy, scipy and mpmue come in through ``setup``, and the reference code
only after the timed region.
"""

import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)


def clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so run.py can subtract the
    # moment it started this interpreter from the moment set-up ended here.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def timed_loop(op, inputs, first, seconds: float, tracer=None) -> dict:
    """Run ops one at a time until ``seconds`` of wall time have passed.

    Each op is timed in CPU time (user + system) of this process, which is
    single-threaded here: on a shared host the wall time of an op also holds
    the time the vCPU was given to other guests, and that share ranged from
    2% to 13% over six 25-second runs of the same code.

    With a tracer, even-numbered ops run traced and odd ones untraced, so
    both kinds see the same conditions and their mean times give the overhead.
    """
    runs = {True: [], False: []}
    attempted = failed = mismatched = 0
    start = last = clock()
    while attempted == 0 or last - start < seconds or (tracer and not runs[False]):
        traced = tracer is not None and attempted % 2 == 0
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
        attempted += 1
        c0 = time.process_time()
        try:
            out = tracer.run_span("op", op, inputs) if traced else op(inputs)
        except Exception as exc:  # an op that raises counts as failed; the loop goes on
            print(f"op {attempted} failed: {exc!r}", file=sys.stderr)
            last = clock()
            failed += 1
            continue
        runs[traced].append(time.process_time() - c0)
        last = clock()
        mismatched += out != first
    if tracer is not None:
        tracer.uninstall()
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatched": mismatched,
        "cpu": runs[False],
        "traced_cpu": runs[True],
    }


def main(argv) -> int:
    mode, name, seed, seconds, scratch = argv[1], argv[2], int(argv[3]), float(argv[4]), argv[5]
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = workload.setup(seed, scratch)
    first = workload.op(inputs) if tracer is None else tracer.run_span("op", workload.op, inputs)
    t_first = clock()
    if mode == "setup":
        print(json.dumps({"t_first": t_first}))
        return 0

    before = tracer.snapshot() if tracer else None
    loop = timed_loop(workload.op, inputs, first, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = workload.check(inputs, first)
    if loop["mismatched"]:
        problems.append(f"{loop['mismatched']} ops gave output different from the warm-up op")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "t_first": t_first,
        "correct": not problems,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
    }
    done = loop["cpu"]
    if tracer is None:
        result["metrics"] = {
            "op_cpu_ms": {"value": 1000.0 * statistics.fmean(done), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        from tracing import per_op_metrics

        traced = loop["traced_cpu"]
        metrics = per_op_metrics(before, tracer.snapshot(), len(traced))
        overhead = statistics.fmean(traced) / statistics.fmean(done) - 1.0
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
        result["metrics"] = metrics
        tracer.write_spans(os.path.join(scratch, f"spans-{name}-{seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
