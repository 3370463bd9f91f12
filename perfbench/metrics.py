"""Metric computation for the repository benchmark.

Turns the raw measurements perfbench writes (raw.json, trace.json) into the
metrics BENCHMARK.json declares, and runs the checks that need no solver:
the determinism guard and the reference-objective comparison. Pure Python,
no third-party modules; perfbench/selftest.py tests the helpers here.
"""
import csv
import json
import math
import os
import statistics

PROVEN, INCUMBENT, HEURISTIC, INFEASIBLE = 0, 1, 2, 3

# name -> (unit, better). The first group is printed with --trace 0, the
# second with --trace 1; BENCHMARK.json must declare exactly these.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "plans_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "proven_rate": ("ratio", "higher"),
    "overhead_geomean": ("ratio", "lower"),
    "gap_mean": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "model.build_ms": ("ms", "lower"),
    "core.ilp_builder.build_ms": ("ms", "lower"),
    "core.ilp_builder.rows": ("count", "lower"),
    "core.ilp_builder.nnz": ("count", "lower"),
    "milp.presolve.ms": ("ms", "lower"),
    "milp.presolve.rows_removed": ("count", "higher"),
    "milp.presolve.vars_fixed": ("count", "higher"),
    "lp.root.ms": ("ms", "lower"),
    "lp.root.iterations": ("count", "lower"),
    "lp.root.us_per_iter": ("us", "lower"),
    "lp.root.share": ("ratio", "lower"),
    "lp.iterations": ("count", "lower"),
    "lp.refactorizations": ("count", "lower"),
    "lp.ft_updates": ("count", "lower"),
    "lp.pricing_resets": ("count", "lower"),
    "milp.nodes": ("count", "lower"),
    "milp.cuts_added": ("count", "lower"),
    "milp.gomory_cuts": ("count", "lower"),
    "milp.cuts_kept_ratio": ("ratio", "higher"),
    "milp.strong_branches": ("count", "lower"),
    "milp.root_gap": ("ratio", "lower"),
    "core.rounding.us": ("us", "lower"),
    "core.rounding.overhead_ratio": ("ratio", "lower"),
    "core.simulator.us": ("us", "lower"),
    "core.simulator.share": ("ratio", "lower"),
    "service.formulation_hits": ("count", "higher"),
    "service.formulation_misses": ("count", "lower"),
    "service.evictions": ("count", "lower"),
    "service.budget_rebinds": ("count", "higher"),
    "service.presolve_reuses": ("count", "higher"),
    "service.warm_start_shortcuts": ("count", "higher"),
    "service.served_without_solve_rate": ("ratio", "higher"),
    "service.single_flight_shared": ("count", "higher"),
    "service.heuristic_served": ("count", "lower"),
    "store.load_ms": ("ms", "lower"),
    "store.lookup_us": ("us", "lower"),
    "store.put_ms": ("ms", "lower"),
    "store.hits": ("count", "higher"),
    "store.misses": ("count", "lower"),
    "store.quarantines": ("count", "lower"),
    "store.put_failures": ("count", "lower"),
    "store.share": ("ratio", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "failed_rate": ("ratio", "lower"),
}

FLOAT_COLUMNS = {"ms", "cost", "gap", "lower_bound", "root_relaxation"}


def load_samples(out_dir, files):
    """Columns of the per-query samples, read from the CSV logs perfbench
    writes (one per client and phase)."""
    columns = {}
    for name in files:
        with open(os.path.join(out_dir, name), newline="") as f:
            reader = csv.reader(f)
            header = next(reader)
            for h in header:
                columns.setdefault(h, [])
            for row in reader:
                for h, v in zip(header, row):
                    columns[h].append(float(v) if h in FLOAT_COLUMNS else int(v))
    return columns


TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def nearest_rank(p, n):
    """1-based nearest rank of percentile p among n samples (the epsilon
    keeps 99.9% of 10000 at rank 9990 despite binary rounding)."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND of n samples above
    it (nearest rank), or None when even the lowest rung has too few."""
    best = None
    for p in TAIL_LADDER:
        if n - nearest_rank(p, n) >= MIN_BEYOND:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[nearest_rank(p, len(ordered)) - 1]


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_times(trace):
    """Every span as (event, self time in ms): its duration minus the part of
    it its child spans (same thread, nested inside) cover."""
    by_tid = {}
    for ev in trace["traceEvents"]:
        by_tid.setdefault(ev["tid"], []).append(ev)
    out = []
    for events in by_tid.values():
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [event, covered_us]
        done = []

        def close_until(ts):
            while stack and stack[-1][0]["ts"] + stack[-1][0]["dur"] <= ts:
                done.append(stack.pop())

        for ev in events:
            close_until(ev["ts"])
            if stack:
                parent = stack[-1]
                end = min(ev["ts"] + ev["dur"], parent[0]["ts"] + parent[0]["dur"])
                parent[1] += max(0.0, end - ev["ts"])
            stack.append([ev, 0.0])
        close_until(math.inf)
        out += [(ev, (ev["dur"] - covered) / 1000.0) for ev, covered in done]
    return out



def check_trace(trace):
    """Returns a list of problems with a Chrome trace-event document."""
    errors = []
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    for i, ev in enumerate(events):
        for key, kind in (("name", str), ("cat", str), ("ph", str), ("pid", int),
                          ("tid", int), ("ts", (int, float)), ("dur", (int, float)),
                          ("args", dict)):
            if not isinstance(ev.get(key), kind):
                errors.append("event %d: bad %s" % (i, key))
        if ev.get("ph") != "X":
            errors.append("event %d: phase is not a complete event" % i)
        if isinstance(ev.get("dur"), (int, float)) and ev["dur"] < 0:
            errors.append("event %d: negative duration" % i)
        if ev.get("cat") == "query" and "query" not in ev.get("args", {}):
            errors.append("event %d: query span without a query id" % i)
    return errors


SIGNATURE = ("provenance", "nodes", "lp_iterations", "cuts_added", "gomory_cuts",
             "cuts_removed", "strong_branches", "cost")


def determinism_failures(raw):
    """Indices of samples whose deterministic counters differ from the first
    sample of the same query slot, with messages. A slot is the query for the
    sweep workloads (every sweep runs on a fresh service) and the (pass,
    position) of the replay log for serve_replay (one client, fresh store
    every round); it spans rounds, clients and the untraced/traced phases."""
    s = raw["samples"]
    replay = raw["workload"] == "serve_replay"
    first = {}
    bad, messages = [], []
    for i in range(len(s["ms"])):
        slot = (s["pass"][i], s["pos"][i]) if replay else s["query"][i]
        sig = tuple(s[k][i] for k in SIGNATURE)
        if slot not in first:
            first[slot] = sig
        elif first[slot] != sig:
            bad.append(i)
            if len(messages) < 10:
                qid = raw["queries"][s["query"][i]]["id"]
                messages.append("determinism: %s phase %d round %d: %s != %s" % (
                    qid, s["phase"][i], s["round"][i], sig, first[slot]))
    return bad, messages


def reference_problems(references, relative_gap):
    """Cross-checks the committed references between the backends: every
    interval plan is dense-feasible, so the dense optimum can never exceed
    the interval one beyond the gap, nor a dense bound any interval cost."""
    errors = []
    for qid, ref in references.items():
        dense, interval = ref.get("dense"), ref.get("interval")
        if not dense or not interval or not interval["feasible"]:
            continue
        tol = 1e-9 * max(1.0, abs(interval["objective"]))
        if dense["best_bound"] > interval["objective"] + tol:
            errors.append("%s: dense bound above the interval objective" % qid)
        if (dense["proven"] and interval["proven"] and
                dense["objective"] > interval["objective"] * (1 + relative_gap) + tol):
            errors.append("%s: dense optimum above the interval optimum" % qid)
    return errors


def reference_failures(raw, references):
    """Indices of samples inconsistent with the committed reference of their
    query, with messages. A proven-optimal cost must match the reference
    optimum within the gap; any plan must cost at least the reference's
    proven bound; any reported lower bound must not exceed a known plan."""
    s = raw["samples"]
    gap = raw["relative_gap"]
    backend = raw["formulation"]
    bad, messages = [], []
    for i in range(len(s["ms"])):
        if s["provenance"][i] == INFEASIBLE:
            continue
        qid = raw["queries"][s["query"][i]]["id"]
        ref = references.get(qid, {}).get(backend)
        why = None
        if ref is None:
            why = "no committed reference"
        else:
            cost, lower = s["cost"][i], s["lower_bound"][i]
            tol = 1e-9 * max(1.0, abs(cost))
            if (ref["proven"] and s["provenance"][i] == PROVEN and
                    abs(cost - ref["objective"]) >
                    gap * max(abs(cost), abs(ref["objective"])) * 1.001 + tol):
                why = "proven cost %.10g vs reference %.10g" % (cost, ref["objective"])
            elif cost < ref["best_bound"] - tol:
                why = "cost %.10g below the reference bound %.10g" % (
                    cost, ref["best_bound"])
            elif ref["feasible"] and lower > ref["objective"] + tol:
                why = "lower bound %.10g above the reference plan %.10g" % (
                    lower, ref["objective"])
        if why:
            bad.append(i)
            if len(messages) < 10:
                messages.append("reference: %s: %s" % (qid, why))
    return bad, messages


def phase_indices(raw, phase):
    return [i for i, p in enumerate(raw["samples"]["phase"]) if p == phase]


def queries_per_round(raw):
    """Queries one client issues per round."""
    if raw["workload"] == "serve_replay":
        return sum(1 for i in phase_indices(raw, 0)
                   if raw["samples"]["round"][i] == 0)
    return len(raw["queries"])


def end_to_end(raw, failed):
    """The untraced phase's end-to-end metrics, plus (percentile, n) of the
    tail. `failed` is the set of sample indices that failed any check."""
    s = raw["samples"]
    idx = phase_indices(raw, 0)
    ms = [s["ms"][i] for i in idx]
    ok = [i for i in idx if i not in failed and s["provenance"][i] != INFEASIBLE]
    # The percentile is fixed by the sample count every run is guaranteed
    # (min_rounds), so it never switches rungs between runs.
    guaranteed = raw["clients"] * raw["min_rounds"] * queries_per_round(raw)
    p = tail_percentile(guaranteed)
    # Plan quality is a property of each distinct query (the Figure 5 curve
    # has one point per model and budget), not of how often it was asked.
    first = {}
    for i in ok:
        first.setdefault(s["query"][i], i)
    distinct = list(first.values())
    values = {
        "setup_s": statistics.median(raw["setup_s"]),
        # Wall time of the whole phase: service construction, store loads,
        # output checks and waits between rounds count too.
        "plans_per_s": len(ok) / raw["wall_s_phase0"],
        "latency_p50_ms": percentile(ms, 50),
        "proven_rate": sum(1 for i in idx if s["provenance"][i] == PROVEN) / len(idx),
        "overhead_geomean": geomean(
            [s["cost"][i] / raw["queries"][s["query"][i]]["ideal"] for i in distinct]),
        "gap_mean": statistics.fmean(s["gap"][i] for i in distinct),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    if p is not None:
        values["latency_tail_ms"] = percentile(ms, p)
    return values, (p, len(ms))


def mean(xs, default=0.0):
    xs = list(xs)
    return statistics.fmean(xs) if xs else default


def per_layer(raw, trace, failed):
    """The traced run's per-layer metrics: span self times from the trace,
    counters from the traced phase's plan_robust outcomes and services."""
    s = raw["samples"]
    t0, t1 = phase_indices(raw, 0), phase_indices(raw, 1)
    events = self_times(trace)
    by_name, by_problem = {}, {}
    for ev, ms in events:
        name = ev["name"]
        if name == "store.lookup" and ev["args"]["first"]:
            name = "store.lookup.first"  # includes simulator re-validation
        if name == "store.load" and not ev["args"]["records"]:
            continue  # opening an empty store
        by_name.setdefault(name, []).append(ms)
        if "problem" in ev["args"]:
            by_problem.setdefault((name, ev["args"]["problem"]), []).append(ms)
    span_ms = lambda name: mean(by_name.get(name, []))
    problem_ms = lambda name, i: mean(
        by_problem.get((name, raw["queries"][s["query"][i]]["problem"]), []))
    probes = raw["probes"]
    rounds = raw["rounds_phase1"] * raw["clients"]  # client-rounds
    counters = {}
    for key, c in raw.items():
        if key.startswith("counters_phase1_"):
            for k, v in c.items():
                counters[k] = counters.get(k, 0) + v
    per_round = lambda k: counters.get(k, 0) / rounds
    col = lambda k: [s[k][i] for i in t1]

    # Shares of the traced replay's query time: each layer's probe time for
    # the query's own problem, times how often the replay ran the layer.
    query_ms = sum(col("ms"))
    solved = [i for i in t1 if s["lp_iterations"][i] > 0]
    seen, first_serves = set(), []
    for i in t1:
        if s["pass"][i] == 2 and (s["round"][i], s["query"][i]) not in seen:
            seen.add((s["round"][i], s["query"][i]))
            first_serves.append(i)
    stored = [i for i in t1 if s["pass"][i] > 0]
    root_ms = sum(ms for ev, ms in events if ev["name"] == "lp.root")
    root_iters = sum(ev["args"]["iterations"] for ev, _ in events
                     if ev["name"] == "lp.root")
    added, removed = sum(col("cuts_added")), sum(col("cuts_removed"))
    root_gaps = [max(0.0, s["cost"][i] - s["root_relaxation"][i]) / s["cost"][i]
                 for i in t1 if s["nodes"][i] > 0 and s["cost"][i] > 0]
    return {
        "model.build_ms": raw["model_build_ms"],
        "core.ilp_builder.build_ms": span_ms("core.ilp_builder.build"),
        "core.ilp_builder.rows": mean(p["rows"] for p in probes),
        "core.ilp_builder.nnz": mean(p["nnz"] for p in probes),
        "milp.presolve.ms": span_ms("milp.presolve"),
        "milp.presolve.rows_removed": mean(p["presolve_rows_removed"] for p in probes),
        "milp.presolve.vars_fixed": mean(p["presolve_vars_fixed"] for p in probes),
        "lp.root.ms": span_ms("lp.root"),
        "lp.root.iterations": mean(p["root_iterations"] for p in probes),
        "lp.root.us_per_iter": root_ms * 1000.0 / root_iters if root_iters else 0.0,
        "lp.root.share": sum(problem_ms("lp.root", i) for i in solved) / query_ms,
        "lp.iterations": mean(col("lp_iterations")),
        "lp.refactorizations": mean(col("refactorizations")),
        "lp.ft_updates": mean(col("ft_updates")),
        "lp.pricing_resets": mean(col("pricing_resets")),
        "milp.nodes": mean(col("nodes")),
        "milp.cuts_added": mean(col("cuts_added")),
        "milp.gomory_cuts": mean(col("gomory_cuts")),
        "milp.cuts_kept_ratio": 1.0 - removed / added if added else 1.0,
        "milp.strong_branches": mean(col("strong_branches")),
        "milp.root_gap": mean(root_gaps),
        "core.rounding.us": span_ms("core.rounding") * 1000.0,
        "core.rounding.overhead_ratio": mean(
            p["rounded_cost"] / p["returned_cost"] for p in probes
            if p["returned_cost"] > 0 and p["rounded_cost"] > 0),
        "core.simulator.us": span_ms("core.simulator") * 1000.0,
        # Each solve validates its plan; each loaded record is re-validated
        # on its first serve.
        "core.simulator.share": sum(problem_ms("core.simulator", i)
                                    for i in solved + first_serves) / query_ms,
        "service.formulation_hits": per_round("formulation_hits"),
        "service.formulation_misses": per_round("formulation_misses"),
        "service.evictions": per_round("evictions"),
        "service.budget_rebinds": per_round("budget_rebinds"),
        "service.presolve_reuses": per_round("presolve_reuses"),
        "service.warm_start_shortcuts": per_round("warm_start_shortcuts"),
        "service.served_without_solve_rate": 1.0 - len(solved) / len(t1),
        "service.single_flight_shared": per_round("single_flight_shared"),
        "service.heuristic_served":
            sum(1 for i in t1 if s["provenance"][i] == HEURISTIC) / rounds,
        "store.load_ms": span_ms("store.load"),
        "store.lookup_us": span_ms("store.lookup") * 1000.0,
        "store.put_ms": span_ms("store.put"),
        "store.hits": per_round("store_hits"),
        "store.misses": per_round("store_misses"),
        "store.quarantines": per_round("store_quarantines"),
        "store.put_failures": per_round("store_put_failures"),
        # Every query of a store-backed pass looks up; every proven solve puts.
        "store.share": (sum(problem_ms("store.lookup", i) for i in stored) +
                        span_ms("store.put") * counters.get("store_puts", 0)) / query_ms,
        "trace.overhead_ms": mean(col("ms")) - mean(s["ms"][i] for i in t0),
        "failed_rate": len(failed) / len(s["ms"]),
    }


def load_json(path):
    with open(path) as f:
        return json.load(f)
