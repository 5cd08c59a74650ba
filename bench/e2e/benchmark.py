#!/usr/bin/env python3
"""End-to-end benchmark: LU and CA-CG time-to-solution on the threaded
distributed machine, traced through the Backend and Transport seams.

Run from the root of a checkout:

  python3 bench/e2e/benchmark.py run [--workload W] [--seed S]
      [--seconds T] [--trace 0|1] [--out FILE] [--trace-out FILE]
  python3 bench/e2e/benchmark.py smoke
  python3 bench/e2e/benchmark.py spread [--runs N] [--seed S] [--out FILE]
  python3 bench/e2e/benchmark.py compare SET_A SET_B

`run` builds build-e2e/ (libwa from this checkout's sources, Release)
and runs each workload in its own process.  Without --trace it does
an untraced pass (end-to-end metrics) and a traced pass (per-layer
metrics); with --trace 0 or 1 only that pass.  It prints every metric
as `workload metric value unit`, writes one results JSON, and exits 1
if any output check failed.  With one --workload the last line of
stdout is the JSON summary {correct, attempted, failed, metrics}.

Metric names, units, directions and bounds come from BENCHMARK.json;
README.md explains them.
"""

import argparse
import glob
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
RESULTS = BUILD / "results"
PROGRAM = BUILD / "bench_e2e"

WORKLOADS = ["lu_ll_shm", "lu_rl_sim", "cacg_poisson_shm", "cacg_batch_graph_shm"]

# Counter metrics are exact: a run of the same seed must reproduce them.
EXACT = {"nvm_write_words", "network_words", "network_messages"}

# Reported next to the BENCHMARK.json metrics but not listed there:
# each is a function of a listed metric or of the failure count,
# gflops and solves_per_s exist on one workload kind only, and
# model.cost_s is computed from counters, not measured.
EXTRA_UNITS = {"gflops": "GF/s", "solves_per_s": "solves/s", "fail_frac": "ratio",
               "trace.op_s_p50": "s", "model.cost_s": "s"}

BUILD_BUDGET_S = 850  # the first run in a fresh checkout builds libwa
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def units(section):
    return {m["name"]: m["unit"] for m in spec()[section]}


# ---- build and run ---------------------------------------------------------


def build():
    """Configure (once) and build bench_e2e; the log stays in build-e2e/."""
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                  "-j", jobs])
    log = BUILD / "build.log"
    deadline = time.monotonic() + BUILD_BUDGET_S
    with open(log, "a") as out:
        for cmd in steps:
            try:
                subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, check=True,
                               timeout=max(1.0, deadline - time.monotonic()))
            except (OSError, subprocess.SubprocessError) as e:
                raise BenchError(f"build failed ({e}); see {log}") from e


def run_program(workload, seed, seconds, trace, smoke=False, trace_out=None):
    """One workload in its own process; returns bench_e2e's raw JSON."""
    cmd = [str(PROGRAM), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError(f"{workload}: bench_e2e did not finish ({e})") from e
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        raise BenchError(f"{workload}: no result (exit {proc.returncode}): "
                         f"{proc.stderr.strip()}") from e
    for err in raw["errors"]:
        print(f"{workload}: check failed: {err}", file=sys.stderr)
    return raw


# ---- metrics ----------------------------------------------------------------


def quartiles(values):
    """(q1, median, q3), as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def e2e_metrics(raw):
    """End-to-end metrics of one untraced pass, plus the ungated extras."""
    ops = [x for x in raw["op_s"] if x is not None]
    setup = [x for x in raw["setup_s"] if x is not None]
    if not ops or not setup:
        raise BenchError(f"{raw['workload']}: no successful op to time")
    p50 = statistics.median(ops)
    m = {
        "setup_s": statistics.median(setup),
        "op_s_p50": p50,
        "op_s_p75": statistics.quantiles(ops, n=4, method="inclusive")[2]
        if len(ops) > 1 else ops[0],
        "peak_rss_mb": raw["peak_rss_mb"],
        "nvm_write_words": raw["nvm_write_words"],
        "network_words": raw["network_words"],
        "network_messages": raw["network_messages"],
        "fail_frac": raw["failed"] / raw["attempted"],
    }
    if raw["nominal_flops"] > 0:
        m["gflops"] = raw["nominal_flops"] / p50 / 1e9
    if raw["nrhs"] > 0:
        m["solves_per_s"] = raw["nrhs"] / p50
    return m


def print_metrics(workload, metrics, unit_of):
    for name, value in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit_of.get(name, EXTRA_UNITS.get(name, ''))}")


def summary_line(passes, section):
    """The one-line JSON result of a single-workload run."""
    unit_of = units(section)
    source = {}
    for p in passes:
        source.update(p["metrics"])
    attempted = sum(p["raw"]["attempted"] for p in passes)
    failed = sum(p["raw"]["failed"] for p in passes)
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": source[name], "unit": unit}
                    for name, unit in unit_of.items()},
    })


def run_workload(workload, seed, seconds, trace, trace_out, smoke=False):
    """The requested passes of one workload: list of {pass, raw, metrics}."""
    passes = []
    if trace in (None, 0):
        raw = run_program(workload, seed, seconds, False, smoke)
        passes.append({"pass": "untraced", "raw": raw, "metrics": e2e_metrics(raw)})
        print_metrics(workload, passes[-1]["metrics"], units("end_to_end"))
    if trace in (None, 1):
        path = trace_out or RESULTS / f"trace-{workload}-seed{seed}.json"
        raw = run_program(workload, seed, seconds, True, smoke, path)
        layers = dict(raw["traced"]["layers"])
        layers["partition.build_s"] = raw["traced"]["partition.build_s"]
        passes.append({"pass": "traced", "raw": raw, "metrics": layers})
        print_metrics(workload, layers, units("per_layer"))
        for kind, s in sorted(raw["traced"]["self_s_per_op"].items()):
            print(f"{workload} self.{kind} {s:.6g} s/op")
        print(f"{workload} trace {os.path.relpath(path, ROOT)}")
    if len(passes) == 2:
        # Tracing wraps the seams from outside: it must not move a bit.
        untraced, traced = (p["raw"] for p in passes)
        for key in ("counter_digest", "output_digest"):
            if untraced[key] != traced[key]:
                print(f"{workload}: check failed: {key} differs between the "
                      "untraced and traced passes", file=sys.stderr)
                traced["failed"] += 1
    return passes


def cmd_run(args):
    build()
    RESULTS.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds or spec()["run_seconds"]
    workloads = [args.workload] if args.workload else WORKLOADS
    results = {"seed": args.seed, "seconds": seconds, "nproc": os.cpu_count(),
               "workloads": {}}
    for w in workloads:
        results["workloads"][w] = run_workload(
            w, args.seed, seconds, args.trace, args.trace_out if args.workload else None)
    out = Path(args.out) if args.out else RESULTS / (
        f"run-seed{args.seed}-{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}.json")
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results {os.path.relpath(out, ROOT)}")
    failed = sum(p["raw"]["failed"] for ps in results["workloads"].values() for p in ps)
    if args.workload:
        passes = results["workloads"][args.workload]
        section = "per_layer" if args.trace == 1 else "end_to_end"
        print(summary_line(passes, section))
    return 1 if failed else 0


def cmd_smoke(_args):
    """Half-size workloads, 1 warm-up + 3 timed ops, every check."""
    start = time.monotonic()
    build()
    RESULTS.mkdir(parents=True, exist_ok=True)
    failed = 0
    for w in WORKLOADS:
        for p in run_workload(w, 1, 1, None, None, smoke=True):
            failed += p["raw"]["failed"]
    print(f"smoke {'FAILED' if failed else 'ok'} in {time.monotonic() - start:.1f} s")
    return 1 if failed else 0


def spread_stats(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "rel_range": (max(values) - min(values)) / med if med else 0.0,
            "rel_iqr": (q3 - q1) / med if med else 0.0}


MAX_BOUND = 0.25  # the largest bound BENCHMARK.json may carry


def implied_bound(stats):
    """max(5%, relative range, 3 x relative IQR), rounded up to the next
    5%; the IQR term keeps the quartile spread within a third of the
    bound.  May exceed MAX_BOUND, which the caller reports."""
    worst = max(0.05, stats["rel_range"], 3 * stats["rel_iqr"])
    return math.ceil(round(worst * 20, 9)) / 20


def commit_of_checkout():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def cmd_spread(args):
    """The untraced pass N times (seeds S..S+N-1): medians, quartiles,
    relative ranges and the bounds they imply."""
    build()
    RESULTS.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds or spec()["run_seconds"]
    unit_of = units("end_to_end")
    values = {w: {m: [] for m in unit_of} for w in WORKLOADS}
    failed = 0
    for i in range(args.runs):
        for w in WORKLOADS:
            raw = run_program(w, args.seed + i, seconds, False)
            failed += raw["failed"]
            metrics = e2e_metrics(raw)
            for m in unit_of:
                values[w][m].append(metrics[m])
    latest = {"seed": args.seed, "runs": args.runs, "seconds": seconds,
              "nproc": os.cpu_count(), "commit": commit_of_checkout(),
              "metrics": {w: {m: spread_stats(v) for m, v in ms.items()}
                          for w, ms in values.items()}}
    bounds = {}
    for m in unit_of:
        if m in EXACT:
            bounds[m] = 0.0
            print(f"bound {m} exact")
            continue
        per_workload = {w: implied_bound(latest["metrics"][w][m]) for w in WORKLOADS}
        worst = max(per_workload, key=per_workload.get)
        bounds[m] = min(MAX_BOUND, per_workload[worst])
        capped = " (capped: spread exceeds the largest allowed bound)" \
            if per_workload[worst] > MAX_BOUND else ""
        print(f"bound {m} {bounds[m]:.2f} set by {worst}{capped}")
    for w in WORKLOADS:
        for m, s in latest["metrics"][w].items():
            print(f"{w} {m} median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} rel_range {s['rel_range']:.4f} "
                  f"rel_iqr {s['rel_iqr']:.4f} {unit_of[m]}")
    latest["bounds"] = bounds
    out = Path(args.out) if args.out else RESULTS / "spread.json"
    out.write_text(json.dumps(latest, indent=1) + "\n")
    print(f"spread {os.path.relpath(out, ROOT)}")
    return 1 if failed else 0


# ---- compare ----------------------------------------------------------------


def load_set(path):
    """Untraced passes of a set of results JSON: {workload: [raw, ...]}."""
    p = Path(path)
    files = sorted(glob.glob(str(p / "*.json"))) if p.is_dir() else [str(p)]
    runs = {}
    for f in files:
        data = json.loads(Path(f).read_text())
        for w, passes in data.get("workloads", {}).items():
            for ps in passes:
                if ps["pass"] == "untraced":
                    runs.setdefault(w, []).append(ps["raw"])
    if not runs:
        raise BenchError(f"{path}: no untraced results")
    return runs


def rel_spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(a, b, bound, lower_better):
    """improved / unchanged / worse / unresolved for B against A."""
    sign = 1.0 if lower_better else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    worse_by = sign * (mb - ma) / ma if ma else 0.0
    b_beats_all = all(sign * (y - x) < 0 for x in a for y in b)
    a_beats_all = all(sign * (y - x) > 0 for x in a for y in b)
    if rel_spread(a) > bound or rel_spread(b) > bound:
        if b_beats_all:
            return "improved"
        return "worse" if a_beats_all else "unresolved"
    if worse_by > bound:
        return "worse"
    if b_beats_all and -worse_by * ma > rel_spread(a) * ma:
        return "improved"
    return "unchanged"


def exact_verdict(a_runs, b_runs, metric):
    """Counters of the same seed must match exactly."""
    a = {r["seed"]: r[metric] for r in a_runs}
    b = {r["seed"]: r[metric] for r in b_runs}
    common = sorted(set(a) & set(b))
    if not common:
        return None
    if all(a[s] == b[s] for s in common):
        return "unchanged"
    return "worse" if any(b[s] > a[s] for s in common) else "improved"


def cmd_compare(args):
    a_set, b_set = load_set(args.set_a), load_set(args.set_b)
    metrics = spec()["end_to_end"]
    worse = 0
    print(f"{'workload':24} {'metric':18} {'median A':>12} {'median B':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for w in WORKLOADS:
        if w not in a_set or w not in b_set:
            continue
        a_metrics = [e2e_metrics(r) for r in a_set[w]]
        b_metrics = [e2e_metrics(r) for r in b_set[w]]
        for m in metrics:
            name = m["name"]
            a = [x[name] for x in a_metrics]
            b = [x[name] for x in b_metrics]
            v = exact_verdict(a_set[w], b_set[w], name) if name in EXACT else None
            if v is None:
                v = verdict(a, b, m["bound"], m["better"] == "lower")
            worse += v == "worse"
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            print(f"{w:24} {name:18} {ma:12.6g} {mb:12.6g} {change:+8.2%} "
                  f"{m['bound']:6.2f}  {v}")
        digests = {(r["seed"], r["counter_digest"]) for r in a_set[w] + b_set[w]}
        seeds = {s for s, _ in digests}
        if len(digests) != len(seeds):
            print(f"{w}: per-rank counters differ between runs of one seed")
            worse += 1
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="build, run the workloads, print metrics")
    r.add_argument("--workload", choices=WORKLOADS)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--seconds", type=float)
    r.add_argument("--trace", type=int, choices=[0, 1])
    r.add_argument("--out", help="results JSON (default build-e2e/results/)")
    r.add_argument("--trace-out", help="Chrome trace file (one workload only)")
    sub.add_parser("smoke", help="half-size check of every workload")
    s = sub.add_parser("spread", help="run-to-run spread and implied bounds")
    s.add_argument("--runs", type=int, default=5)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--seconds", type=float)
    s.add_argument("--out", help="spread JSON (default build-e2e/results/)")
    c = sub.add_parser("compare", help="verdicts of set B against set A")
    c.add_argument("set_a")
    c.add_argument("set_b")
    args = ap.parse_args()
    handler = {"run": cmd_run, "smoke": cmd_smoke, "spread": cmd_spread,
               "compare": cmd_compare}[args.cmd]
    try:
        return handler(args)
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
