"""Benchmark of the supersew engine: coordinate maps, sewing, NS VOSA axioms.

Run from the root of a checkout:

    python3 supersewbench/run.py --workload coord --seed 1 --seconds 30 --trace 0

``--workload`` is ``coord``, ``sew``, ``vosa`` or ``all`` (each workload in a
fresh process of its own, one after the other).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it give every metric by name with its unit.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` alternates an
untraced round with a traced one until the time is up, reports the per-layer
metrics of the traced rounds and the tracing overhead, and writes the spans
of the first traced round under ``supersewbench/out/``.  See README.md.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
NAMES = ("coord", "sew", "vosa")
SETUP_REPS = 9

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


def purge_modules():
    """Forget supersew and the workload module, so the next import is a
    fresh one (set-up time includes importing the program)."""
    for name in list(sys.modules):
        if name == "supersew" or name.startswith("supersew.") or \
                name == "supersewbench.workloads":
            del sys.modules[name]


def set_up(workload, seed):
    """Import, make the inputs and build the first round, SETUP_REPS times
    from scratch; returns the median time and the last set-up."""
    times = []
    for _ in range(SETUP_REPS):
        purge_modules()
        t0 = perf_counter()
        wl = importlib.import_module("supersewbench.workloads")
        make_inputs, make_round = wl.WORKLOADS[workload]
        inputs = make_inputs(seed)
        first = make_round(inputs)
        times.append(perf_counter() - t0)
    return statistics.median(times), make_round, inputs, first


def run_round(ops, tracer=None):
    """Run every operation once; returns (durations, failed, problems)."""
    durations, failed, problems = [], 0, []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            out = op.compute()
        except Exception:  # a failing operation is counted, the run goes on
            failed += 1
            sys.stderr.write("operation %d (%s) failed:\n%s"
                             % (i, op.kind, traceback.format_exc()))
            continue
        durations.append(perf_counter() - t0)
        try:
            msg = op.check(out)
        except Exception as exc:  # a check that cannot run is a wrong output
            msg = "check raised %r" % (exc,)
        if msg:
            problems.append("operation %d (%s): %s" % (i, op.kind, msg))
    return durations, failed, problems


def result(correct, attempted, failed, metrics, units):
    for name in sorted(metrics):
        print("%s = %r %s" % (name, metrics[name], units[name]))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": units[n]}
                        for n in metrics}}


def measure(workload, seed, seconds):
    setup_s, make_round, inputs, (ops, _ctx) = set_up(workload, seed)
    durations, failed, attempted, problems = [], 0, 0, []
    start = perf_counter()
    while True:
        d, f, p = run_round(ops)
        durations += d
        failed += f
        attempted += len(ops)
        problems += p
        if perf_counter() - start >= seconds:
            break
        ops, _ctx = make_round(inputs)
    for msg in problems:
        sys.stderr.write("wrong output: %s\n" % msg)
    metrics = {
        "ops_per_s": len(durations) / sum(durations) if durations else 0.0,
        "op_p50_s": statistics.median(durations) if durations else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "setup_s": setup_s,
    }
    return result(not problems, attempted, failed, metrics, END_TO_END_UNITS)


def measure_traced(workload, seed, seconds):
    _setup_s, make_round, inputs, (ops, _ctx) = set_up(workload, seed)
    from supersewbench.tracer import PER_LAYER, Tracer

    # a first round warms the interpreter, so that the untraced rounds the
    # overhead is measured against are not slowed by the first calls
    _d, failed, problems = run_round(ops)
    attempted = len(ops)
    ops, _ctx = make_round(inputs)
    plain_s, traced_s, rounds = [], [], []
    start = perf_counter()
    while True:
        d, f, p = run_round(ops)
        plain_s.append(sum(d))
        failed += f
        attempted += len(ops)
        problems += p
        tracer = Tracer()
        tracer.install()
        try:
            ops, _ctx = make_round(inputs)
            d, f, p = run_round(ops, tracer)
        finally:
            tracer.uninstall()
        traced_s.append(sum(d))
        failed += f
        attempted += len(ops)
        problems += p
        rounds.append(tracer)
        if perf_counter() - start >= seconds:
            break
        ops, _ctx = make_round(inputs)
    for msg in problems:
        sys.stderr.write("wrong output: %s\n" % msg)

    per_round = [t.metrics() for t in rounds]
    for m in per_round[1:]:
        moved = [n for n in PER_LAYER
                 if not n.endswith("_s") and m[n] != per_round[0][n]]
        if moved:
            sys.stderr.write("counts differ between traced rounds: %s\n"
                             % ", ".join(moved))
    metrics = {}
    for name in PER_LAYER:
        value = per_round[0][name]
        if name.endswith("_s"):
            # times vary run to run: the median over the traced rounds
            metrics[name] = statistics.median(m[name] for m in per_round)
        else:
            # every round is the same fixed work, so counts repeat exactly
            metrics[name] = value
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0)
    units = {n: ("s" if n.endswith("_s") else "count") for n in metrics}
    units["trace.overhead_pct"] = "%"

    os.makedirs(OUT, exist_ok=True)
    rounds[0].dump(os.path.join(OUT, "trace-%s-seed%d.jsonl" % (workload, seed)),
                   {"workload": workload, "seed": seed,
                    "metrics": per_round[0],
                    "untraced_round_s": plain_s, "traced_round_s": traced_s})
    return result(not problems, attempted, failed, metrics, units)


def run_all(args):
    """Each workload in a fresh process of its own, one after the other."""
    correct, attempted, failed, metrics, units = True, 0, 0, {}, {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write("workload %s exited with %d\n"
                             % (name, proc.returncode))
            sys.exit(1)
        got = json.loads(lines[-1])
        correct = correct and got["correct"]
        attempted += got["attempted"]
        failed += got["failed"]
        for metric, val in got["metrics"].items():
            metrics["%s.%s" % (name, metric)] = val["value"]
            units["%s.%s" % (name, metric)] = val["unit"]
    return result(correct, attempted, failed, metrics, units)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(SRC, "supersew")):
        sys.stderr.write("no supersew sources under %s\n" % SRC)
        return 2
    sys.path[:0] = [SRC, ROOT]
    if args.workload == "all":
        out = run_all(args)
    elif args.trace:
        out = measure_traced(args.workload, args.seed, args.seconds)
    else:
        out = measure(args.workload, args.seed, args.seconds)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(out, fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
