"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads desk io --seeds 1-10 \
        --seconds 12 --trace 0 --out summary.json

For every workload and metric it prints the median, the quartiles and the
spread (quartile distance over median) of the runs, and checks the spread
against the metric's bound in BENCHMARK.json.  Runs go one after another,
never in parallel.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from summary import median, quartiles, spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["details"], took


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    summary, ok = {"seconds": seconds, "trace": args.trace}, True
    for workload in args.workloads:
        values, runs = {}, []
        for seed in args.seeds:
            result, details, took = run_once(workload, seed, seconds,
                                             args.trace)
            summary.setdefault("machine", details["machine"])
            ok &= result["correct"] and result["failed"] == 0
            runs.append({"seed": seed, "run_s": took, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "op_s": details.get("op_s")})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {took:.1f} s, correct "
                  f"{result['correct']}", file=sys.stderr, flush=True)
        rows = {}
        for name, vals in values.items():
            q1, q3 = quartiles(vals) if len(vals) > 1 else (vals[0], vals[0])
            rows[name] = {"median": median(vals), "q1": q1, "q3": q3,
                          "spread": spread(vals) if len(vals) > 1 else 0.0,
                          "values": vals}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = ("ok" if rows[name]["spread"] < bound / 3 else
                        "within bound" if rows[name]["spread"] <= bound else
                        "OVER BOUND")
                ok &= rows[name]["spread"] <= bound
            print(f"{workload:10s} {name:36s} median {rows[name]['median']:.6g} "
                  f"spread {rows[name]['spread']:.4f} {flag}")
        summary[workload] = {"runs": runs, "metrics": rows}
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
