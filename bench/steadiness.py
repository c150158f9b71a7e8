"""Two separated sets of benchmark runs of the same code, compared.

    python3 bench/steadiness.py --runs 10

Runs set A (seeds 1..runs) over every workload, then set B (seeds
1001..1000+runs), each run in its own process, for `run_seconds` from
BENCHMARK.json. For each workload and end-to-end metric it prints both
medians, each set's quartile spread as a share of its median, and whether
the two sets agree within the bound declared in BENCHMARK.json: each spread
within the bound, and B's median within the bound of A's in either
direction. It also compares the share of failed operations. Writes every
value to .bench_runs/steadiness.json. Exits 1 if anything disagrees.
"""

import argparse
import json
import statistics
import sys
import time

import run
import workloads


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a; negative if b is better."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = run.benchmark_spec()
    seconds = spec["run_seconds"]

    sets = {}
    for label, base in (("A", 0), ("B", 1000)):
        for name in workloads.NAMES:
            for seed in range(base + 1, base + args.runs + 1):
                t0 = time.perf_counter()
                res = run.run_once(name, seed, seconds)
                sets.setdefault((label, name), []).append(res)
                print(f"set {label} {name} seed {seed}: {time.perf_counter() - t0:.1f} s wall, "
                      + ", ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()),
                      file=sys.stderr, flush=True)

    rows, ok = [], True
    for name in workloads.NAMES:
        a, b = sets[("A", name)], sets[("B", name)]
        share = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in (a, b)]
        correct = all(r["correct"] for r in a + b)
        if share[0] != share[1] or not correct:
            ok = False
        for metric in spec["end_to_end"]:
            va = [r["metrics"][metric["name"]]["value"] for r in a]
            vb = [r["metrics"][metric["name"]]["value"] for r in b]
            row = {"workload": name, "metric": metric["name"], "unit": metric["unit"],
                   "bound": metric["bound"],
                   "median_a": statistics.median(va), "median_b": statistics.median(vb),
                   "spread_a": spread(va), "spread_b": spread(vb),
                   "b_worse_by": worse_by(statistics.median(va), statistics.median(vb),
                                          metric["better"]),
                   "failed_share": share, "correct": correct, "a": va, "b": vb}
            row["agree"] = bool(max(row["spread_a"], row["spread_b"]) <= metric["bound"]
                                and abs(row["b_worse_by"]) <= metric["bound"])
            ok = ok and row["agree"]
            rows.append(row)

    print(f"{'workload':14} {'metric':12} {'median A':>10} {'median B':>10} {'spread A':>9} "
          f"{'spread B':>9} {'B worse':>8} {'bound':>6}  agree")
    for r in rows:
        print(f"{r['workload']:14} {r['metric']:12} {r['median_a']:10.4f} {r['median_b']:10.4f} "
              f"{r['spread_a']:9.2%} {r['spread_b']:9.2%} {r['b_worse_by']:8.2%} "
              f"{r['bound']:6.0%}  {'yes' if r['agree'] else 'NO'}")
    run.OUT.mkdir(parents=True, exist_ok=True)
    (run.OUT / "steadiness.json").write_text(json.dumps(
        {"runs": args.runs, "seconds": seconds, "rows": rows}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
