#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source, runs one workload
and prints its metrics; the last line of standard output is one JSON object.

    python3 perfbench/run.py --workload zoo_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--seconds 30]

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (and
writes the Chrome trace-event JSON next to the raw data under .bench_build/).
--all runs every workload untraced and prints every end-to-end metric with
its unit. Any failed output check makes the command exit nonzero.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the source tree
sys.path.insert(0, HERE)
import metrics  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")
WORKLOADS = ("zoo_sweep", "deep_interval", "serve_replay")
RUN_TIMEOUT_S = 170
# Never used while tuning the benchmark; check later claims on it too.
HELD_OUT_SEED = 1009


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench; returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = (["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            log("perfbench: build failed:", " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def declared_names(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    spec = metrics.load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (result dict, human-readable lines)."""
    out_dir = os.path.join(RUNS_DIR, "%s-s%d-t%d" % (workload, seed, trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace), "--out", out_dir]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode:
        raise RuntimeError("perfbench exited with %d" % proc.returncode)
    raw = metrics.load_json(os.path.join(out_dir, "raw.json"))
    raw["samples"] = metrics.load_samples(out_dir, raw["sample_files"])
    refs = metrics.load_json(os.path.join(HERE, "references.json"))["queries"]

    messages = list(raw["failures"])
    failed = {i for i, ok in enumerate(raw["samples"]["ok"]) if not ok}
    bad, msgs = metrics.determinism_failures(raw)
    failed.update(bad)
    messages += msgs
    bad, msgs = metrics.reference_failures(raw, refs)
    failed.update(bad)
    messages += msgs
    ids = {q["id"] for q in raw["queries"]}
    messages += metrics.reference_problems(
        {k: v for k, v in refs.items() if k in ids}, raw["relative_gap"])
    # Failures that belong to no single query (a pass-2 solve, a broken
    # reference file) fail the run as one more failed attempt.
    stray = len(messages) > 0 and not failed

    lines = ["%s seed %d, trace %d (held-out seed: %d)" % (
        workload, seed, trace, HELD_OUT_SEED)]
    if trace:
        tr = metrics.load_json(os.path.join(out_dir, "trace.json"))
        errors = metrics.check_trace(tr)
        messages += errors
        stray = stray or bool(errors)
        values = metrics.per_layer(raw, tr, failed)
        table = metrics.PER_LAYER
        lines.append("%s trace: %s" % (workload, os.path.join(out_dir, "trace.json")))
    else:
        values, (p, n) = metrics.end_to_end(raw, failed)
        table = metrics.END_TO_END
        if p is None:
            lines.append("%s latency_tail_ms omitted: too few samples" % workload)
        else:
            lines.append("%s latency_tail_ms is p%g of N=%d samples" % (workload, p, n))

    attempted = len(raw["samples"]["ms"]) + (1 if stray else 0)
    nfailed = len(failed) + (1 if stray else 0)
    missing = declared_names(trace) ^ set(values)
    if missing:
        messages.append("metric names differ from BENCHMARK.json: %s" % sorted(missing))
    for m in messages:
        lines.append("%s CHECK FAILED %s" % (workload, m))
    for name in sorted(values):
        lines.append("%s %-36s %14.6g %s" % (workload, name, values[name], table[name][0]))
    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": nfailed,
        "metrics": {k: {"value": v, "unit": table[k][0]} for k, v in values.items()},
    }
    return result, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="every workload, untraced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("--workload or --all is required")

    binary = build()
    if binary is None:
        return 2
    if args.all:
        ok, summary = True, {}
        for w in WORKLOADS:
            result, lines = measure(binary, w, args.seed, args.seconds, 0)
            print("\n".join(lines), flush=True)
            ok = ok and result["correct"]
            summary[w] = result
        print(json.dumps(summary))
        return 0 if ok else 1
    result, lines = measure(binary, args.workload, args.seed, args.seconds, args.trace)
    log("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
