"""Benchmark of getme: time to a smoothed mesh, checked outputs, and the
time each layer takes.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 7 --seconds 36 --trace 0

One process runs one workload, one operation at a time.  It builds the
inputs from the seed, runs one untimed warm-up pass on the default-seed
inputs (compared with the stored reference outputs), then repeats timed
passes until ``--seconds`` have passed.  Every operation's output is
checked.  The last line of standard output is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced
run (``--trace 1``).  The line before it holds the samples, the machine and
any check failures.

``--write-reference`` instead stores the default-seed outputs of the
workload under ``perfbench/reference/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
WORKLOAD_NAMES = ("desk", "disk-guard", "io")

#: BLAS and OpenMP pools are pinned to one thread, so the single caller is
#: the only thread doing work on a 2-core host.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

MIN_PASSES = 3           # timed passes in a run with tracing off
MIN_TRACED_PASSES = 2    # untraced and traced passes each, with tracing on
SETUP_MIN_REPEATS = 2    # set-ups timed before each pass with tracing
SETUP_MIN_S = 0.2        # off, repeated until they took this long in all
SETUP_MAX_REPEATS = 50


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    return p.parse_args(argv)


def timed_pass(workload, inputs):
    """Run every operation once; returns per-operation seconds and results
    (an exception object for an operation that raised)."""
    op_s, results = {}, {}
    for key, op in workload.ops(inputs):
        start = time.perf_counter()
        try:
            results[key] = op()
        except Exception as exc:  # a raising operation is a failed one
            results[key] = exc
        op_s[key] = time.perf_counter() - start
    return op_s, results


def checked(workload, inputs, results):
    """Check every result; returns outcomes and error messages by key."""
    outcomes, errors = {}, {}
    for key, value in results.items():
        if isinstance(value, Exception):
            errors[key] = f"raised {type(value).__name__}: {value}"
            continue
        try:
            outcomes[key] = workload.check(key, inputs, value)
        except Exception as exc:  # a failed check counts the operation failed
            errors[key] = f"{type(exc).__name__}: {exc}"
    return outcomes, errors


class Tally:
    """Operations attempted and failed, and run-level problems: outputs that
    differ between passes of the same inputs, or inconsistent spans."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.problems = []
        self.fingerprints = None

    def add(self, outcomes, errors, same_as_before=True):
        self.attempted += len(outcomes) + len(errors)
        self.failed += len(errors)
        self.errors += [f"{key}: {msg}" for key, msg in errors.items()]
        if not same_as_before:
            return
        prints = {key: out["fingerprint"] for key, out in outcomes.items()}
        if self.fingerprints is None:
            self.fingerprints = prints
        elif prints != self.fingerprints:
            self.problems.append("outputs differ between passes")

    @property
    def correct(self):
        return self.failed == 0 and not self.problems


# ---------------------------------------------------------------------------
# Reference outputs of the default seed
# ---------------------------------------------------------------------------


def save_reference(name, outcomes):
    import numpy as np

    stats, arrays = {}, {}
    for key, out in sorted(outcomes.items()):
        if out["smoothing"] is None:
            continue
        iterations, guard, vertices = out["smoothing"]
        stats[key] = {"iterations": iterations, "guard_events": guard,
                      "mean": out["quality"][0], "min": out["quality"][1]}
        arrays[key] = vertices
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / f"{name}.json", "w", encoding="ascii") as fh:
        json.dump(stats, fh, indent=1, sort_keys=True)
        fh.write("\n")
    np.savez_compressed(REFERENCE_DIR / f"{name}.npz", **arrays)


def compare_reference(name, outcomes):
    """Deviation of the default-seed outputs from the stored reference, per
    operation, and the reference metrics over all operations.  Also returns
    the operations that have no matching reference."""
    import numpy as np

    with open(REFERENCE_DIR / f"{name}.json", encoding="ascii") as fh:
        stats = json.load(fh)
    ours = {key for key, out in outcomes.items() if out["smoothing"] is not None}
    unmatched = sorted(ours ^ set(stats))
    per_op = {}
    with np.load(REFERENCE_DIR / f"{name}.npz") as arrays:
        for key in sorted(ours & set(stats)):
            out, ref = outcomes[key], stats[key]
            iterations, guard, vertices = out["smoothing"]
            ref_vertices = arrays[key]
            if vertices.shape != ref_vertices.shape:
                unmatched.append(key)
                continue
            per_op[key] = {
                "iterations": iterations - ref["iterations"],
                "guard_events": (guard - ref["guard_events"]
                                 if guard is not None else 0),
                "mean": out["quality"][0] - ref["mean"],
                "min": out["quality"][1] - ref["min"],
                "vertices": float(np.max(np.abs(vertices - ref_vertices),
                                         initial=0.0)),
            }
    devs = per_op.values()
    metrics = {
        "smoothing.output_dev_max": max(
            (d["vertices"] for d in devs), default=0.0),
        "smoothing.ref_iterations_diff": sum(abs(d["iterations"]) for d in devs),
        "smoothing.ref_quality_dev": max(
            (max(abs(d["mean"]), abs(d["min"])) for d in devs), default=0.0),
    }
    return per_op, metrics, unmatched


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def machine():
    import numpy as np

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def timed_setup(workload, seed, workdir, samples):
    """Build the inputs several times, appending each time to ``samples``."""
    spent = 0.0
    for repeat in range(SETUP_MAX_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        took = time.perf_counter() - start
        samples.append(took)
        spent += took
        if repeat + 1 >= SETUP_MIN_REPEATS and spent >= SETUP_MIN_S:
            break
    return inputs


def measure(name, workload, seed, seconds, trace, workdir):
    from spans import Tracer, aggregate, nesting_errors, rebound
    from summary import (combine_passes, fail_ratio, layer_metrics, median,
                         pass_wall)
    from workloads import DEFAULT_SEED, layer_bindings

    tally = Tally()
    inputs = workload.setup(DEFAULT_SEED, workdir)
    _, results = timed_pass(workload, inputs)
    outcomes, errors = checked(workload, inputs, results)
    tally.add(outcomes, errors, same_as_before=False)
    reference, ref_metrics, unmatched = compare_reference(name, outcomes)
    if unmatched:
        tally.problems.append(f"no reference match for {', '.join(unmatched)}")

    setup_s, op_samples, traced_samples, traced_metrics = [], {}, {}, []
    pass_s, traced_pass_s = [], []
    start = time.perf_counter()
    while True:
        untraced, traced = len(pass_s), len(traced_pass_s)
        enough = (traced >= MIN_TRACED_PASSES and untraced >= MIN_TRACED_PASSES
                  if trace else untraced >= MIN_PASSES)
        if enough and time.perf_counter() - start >= seconds:
            break
        if trace and traced < untraced:
            tracer = Tracer()
            with rebound(tracer, layer_bindings()):
                inputs = workload.setup(seed, workdir)
                op_s, results = timed_pass(workload, inputs)
            spans = tracer.take()
            tally.problems += nesting_errors(spans)[:5]
            traced_metrics.append(layer_metrics(aggregate(spans)))
            samples, totals = traced_samples, traced_pass_s
        else:
            inputs = (workload.setup(seed, workdir) if trace else
                      timed_setup(workload, seed, workdir, setup_s))
            op_s, results = timed_pass(workload, inputs)
            samples, totals = op_samples, pass_s
        for key, took in op_s.items():
            samples.setdefault(key, []).append(took)
        totals.append(sum(op_s.values()))
        outcomes, errors = checked(workload, inputs, results)
        tally.add(outcomes, errors)

    wall = pass_wall(op_samples)
    details = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "machine": machine(),
        "passes": len(pass_s), "pass_s": pass_s,
        "op_s": op_samples,
        "op_median_s": {k: median(v) for k, v in op_samples.items()},
        "setup_samples": len(setup_s),
        "reference": reference,
        "errors": tally.errors[:20], "problems": tally.problems,
    }
    quality = [out["quality"] for out in outcomes.values()
               if out["quality"] is not None]
    if trace:
        metrics, unsteady = combine_passes(traced_metrics)
        if unsteady:
            tally.problems.append(f"counts differ between traced passes: "
                                  f"{', '.join(unsteady)}")
        metrics.update(ref_metrics)
        metrics["trace.overhead_ratio"] = pass_wall(traced_samples) / wall
        metrics["quality_min"] = min((q[1] for q in quality), default=0.0)
        metrics["inverted_out"] = sum(o["inverted"] for o in outcomes.values())
        metrics["fail_ratio"] = fail_ratio(tally.failed, tally.attempted)
        details["traced_passes"] = len(traced_pass_s)
        details["traced_pass_s"] = traced_pass_s
    else:
        elements = sum(out["elements"] for out in outcomes.values())
        metrics = {
            "setup_s": median(setup_s),
            "wall_s": wall,
            "elements_per_s": elements / wall,
            "peak_rss_mb": peak_rss_mb(),
            "quality_mean": (sum(q[0] for q in quality) / len(quality)
                             if quality else 0.0),
        }
    return tally, metrics, details


def peak_rss_mb():
    """Peak resident memory of this process, which each run starts fresh."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def units():
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "getme" / "__init__.py").is_file():
        print(f"error: getme sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS[args.workload]()
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        if args.write_reference:
            inputs = workload.setup(DEFAULT_SEED, workdir)
            _, results = timed_pass(workload, inputs)
            outcomes, errors = checked(workload, inputs, results)
            if errors:
                print(f"error: {errors}", file=sys.stderr)
                return 1
            save_reference(args.workload, outcomes)
            return 0
        tally, metrics, details = measure(
            args.workload, workload, args.seed, args.seconds, args.trace,
            workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unit = units()
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
