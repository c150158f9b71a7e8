"""Benchmark of the pseudoplateau pipeline.

    python3 bench/run.py --workload audit_24x72 --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36

Runs whole rounds of one workload's operations for about `--seconds`
(at least two rounds), checks every round's outputs, and prints as its last
line one JSON object: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones (`pipeline_s`,
`setup_s`, `peak_rss_mb`); with `--trace 1` rounds alternate untraced and
traced, and the metrics are the per-layer ones, including the tracing
overhead. See bench/README.md.
"""

import os

# One thread everywhere: the machines this runs on have few cores shared
# with other work, and thread pools there add noise rather than speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "PSEUDOPLATEAU_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import pkgutil
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Third-party modules the package uses, imported before the set-up timer:
# their import time is not the program's.
import numpy  # noqa: F401
import scipy.linalg  # noqa: F401
import scipy.optimize  # noqa: F401
import scipy.sparse  # noqa: F401
import scipy.sparse.csgraph  # noqa: F401
import scipy.sparse.linalg  # noqa: F401

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
BENCHMARK = ROOT / "BENCHMARK.json"
# Set-ups before each round. The machine's speed drifts over seconds, so
# set-ups spread over the whole run, like its rounds, give a steadier median
# than set-ups made all at once.
SETUPS_PER_ROUND = 20
MIN_ROUNDS = 2


def import_package():
    """Import pseudoplateau and every submodule afresh; name -> module."""
    for name in [m for m in sys.modules if m == "pseudoplateau" or m.startswith("pseudoplateau.")]:
        del sys.modules[name]
    pkg = importlib.import_module("pseudoplateau")
    mods = {"pseudoplateau": pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        mods[info.name] = importlib.import_module(f"pseudoplateau.{info.name}")
    return mods


def benchmark_spec():
    """BENCHMARK.json: the one list of the metrics, their units and bounds."""
    return json.loads(BENCHMARK.read_text())


def run_round(work, mods, tracer, index):
    """One round: its wall time, completed operations, outputs and error."""
    d = work.round_dir(index)
    r = workloads.Round(mods, tracer)
    t0 = time.perf_counter()
    try:
        out = work.run_round(r, d)
        error = None
    except Exception:  # a failed operation ends the round; the run goes on
        out, error = None, traceback.format_exc()
    return time.perf_counter() - t0, r.done, out, error


def run_once(workload, seed, seconds, trace=0):
    """Run one workload in a child process and return its result object."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args):
    """Every workload once, each in its own process, as one result object
    whose metrics are named `<workload>/<metric>`."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        res = run_once(name, args.seed, args.seconds, args.trace)
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = m
            print(f"{name} {metric} = {m['value']} {m['unit']}")
        print(f"{name}: {res['attempted']} operations attempted, {res['failed']} failed, "
              f"correct={res['correct']}")
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pseudoplateau" / "__init__.py").is_file():
        print(f"error: no pseudoplateau sources under {SRC}", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    run_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work = workloads.make(args.workload)

    setups = []

    def set_up():
        t0 = time.perf_counter()
        mods = import_package()
        work.setup(mods, run_dir / f"work{len(setups)}", args.seed)
        setups.append(time.perf_counter() - t0)
        return mods

    tracer = tracing.Tracer()
    null = tracing.NullTracer()
    times = {False: [], True: []}
    traced_rounds = []
    outputs = []
    attempted = failed = 0
    start = time.perf_counter()
    index = 0
    while True:
        # every round runs on a package imported afresh by its last set-up
        for _ in range(SETUPS_PER_ROUND):
            mods = set_up()
        # the earlier copies of the package are cyclic garbage; collect them
        # here, so that no round pays for the benchmark's own set-ups
        gc.collect()
        traced = bool(args.trace) and index % 2 == 1
        tracer.round = index
        if traced:
            uninstall = tracer.install(mods)
            try:
                dt, done, out, error = run_round(work, mods, tracer, index)
            finally:
                uninstall()
        else:
            dt, done, out, error = run_round(work, mods, null, index)
        attempted += work.ops
        failed += work.ops - done
        if error is None:
            times[traced].append(dt)
            outputs.append((index, out))
            if traced:
                traced_rounds.append(index)
        else:
            print(f"round {index} failed:\n{error}", file=sys.stderr)
        index += 1
        # stop before a round that would end past --seconds; in a traced run
        # only after whole (untraced, traced) pairs
        elapsed = time.perf_counter() - start
        step = statistics.median(times[False] + times[True] or [dt]) * (1 + args.trace)
        whole = not (args.trace and index % 2)
        if index >= MIN_ROUNDS and whole and elapsed + step > args.seconds:
            break
    if not times[False] or (args.trace and not times[True]):
        kind = "untraced and traced rounds" if args.trace else "round"
        print(f"error: no {kind} of {args.workload} ran to the end", file=sys.stderr)
        shutil.rmtree(run_dir, ignore_errors=True)
        return 1
    # read before the checks, so that the peak is the program's alone
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [f"round {i}: {p}" for i, out in outputs for p in work.check(out)]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    listed = benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        names = [m["name"] for m in listed]
        values = tracer.layer_metrics(traced_rounds, names)
        values["trace.pipeline_s"] = statistics.median(times[True])
        values["trace.overhead_s"] = values["trace.pipeline_s"] - statistics.median(times[False])
    else:
        values = {"pipeline_s": statistics.median(times[False]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": peak_rss_mb}
    shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in listed}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    rounds = " ".join(f"{t:.3f}" for t in times[False] + times[True])
    print(f"{args.workload}: {index} rounds ({rounds} s), {attempted} operations attempted, "
          f"{failed} failed, {len(problems)} check failures")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
