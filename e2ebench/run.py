#!/usr/bin/env python3
"""End-to-end benchmark of the FastIOV simulator.

Builds fastiov_e2e from this checkout, runs one workload as a series of
repetitions ("reps") for --seconds, each rep in a fresh child process with a
watchdog, and prints every metric with its unit. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit code is non-zero when any correctness
check fails. See README.md.

    python3 e2ebench/run.py --workload paper-burst --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --quick
    python3 e2ebench/run.py --compare OLD.json NEW.json
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
OUT_DIR = HERE / "out"

# Watchdog per rep, about 4x the expected wall time of a full-size rep on a
# 4-core x86 box. A killed or crashed rep counts every launch it attempted as
# failed.
WORKLOADS = {
    "paper-burst": {"timeout_s": 12.0, "launches": 8000},
    "scale-burst": {"timeout_s": 15.0, "launches": 2000},
    "churn-reuse": {"timeout_s": 12.0, "launches": 5000},
    "cluster-trace": {"timeout_s": 20.0, "launches": 10000},
}
QUICK_TIMEOUT_S = 10.0
MIN_REPS = 3

# Simulated-time results repeat exactly for a seed; every rep must agree.
SIM_KEYS = ("sim_startup_p50_s", "sim_startup_p99_s", "sim_launches_per_s", "digest")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a FastIOV checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR)])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", "fastiov_e2e"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD_DIR / "fastiov_e2e"


def run_rep(binary, workload, seed, traced, quick, rep_index, timeout_s, extra_args):
    """Runs one rep in a child process. Returns (result dict or None, peak RSS
    MiB, process wall seconds)."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    out_path = BUILD_DIR / f"rep-{os.getpid()}.out"
    argv = [str(binary), "--workload", workload, "--seed", str(seed), "--run-id", str(rep_index)]
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
        argv += ["--trace", "--trace-out", str(OUT_DIR / f"{workload}.trace.json")]
    if quick:
        argv.append("--quick")
    argv += extra_args
    start = time.monotonic()
    pid = os.posix_spawn(
        argv[0], argv, os.environ,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, str(out_path),
                       os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)])
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:  # already reaped
            pass

    watchdog = threading.Timer(timeout_s, kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # e.g. Ctrl-C: never leave the rep running
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
    wall = time.monotonic() - start
    rss_mib = usage.ru_maxrss / 1024.0  # Linux reports KiB
    output = out_path.read_text()
    out_path.unlink()
    code = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        print(f"run.py: {workload} rep {rep_index} killed after {timeout_s:.0f} s", file=sys.stderr)
        return None, rss_mib, wall
    if code != 0:
        print(f"run.py: {workload} rep {rep_index} exited with {code}", file=sys.stderr)
        return None, rss_mib, wall
    lines = output.strip().splitlines()
    return json.loads(lines[-1]), rss_mib, wall


def summarize(values):
    """Median, quartiles (statistics.quantiles, n=4) and count."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


class Run:
    """The reps of one invocation and the checks over them."""

    def __init__(self, workload, expected_launches):
        self.workload = workload
        self.expected_launches = expected_launches
        self.untraced = []  # (result, rss_mib, process wall)
        self.traced = []
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def add(self, rep, rss_mib, wall, traced):
        if rep is None:
            self.problems.append("a rep crashed or timed out")
            self.attempted += self.expected_launches
            self.failed += self.expected_launches
            return
        self.attempted += rep["attempted"]
        self.failed += rep["attempted"] - rep["completed"]
        for check, ok in rep["checks"].items():
            if not ok:
                self.problems.append(f"check '{check}' failed")
        (self.traced if traced else self.untraced).append((rep, rss_mib, wall))

    def check_identical(self):
        reps = [r for r, _, _ in self.untraced + self.traced]
        for key in SIM_KEYS:
            if len({r[key] for r in reps}) > 1:
                self.problems.append(f"'{key}' differs between reps (traced or not)")

    def end_to_end(self):
        reps = [r for r, _, _ in self.untraced]
        first = reps[0]
        metrics = {
            "launches_per_s": summarize([r["launches_per_s"] for r in reps]),
            "peak_rss_mib": summarize([rss for _, rss, _ in self.untraced]),
            "setup_s": summarize([r["setup_s"] for r in reps]),
        }
        for key in ("sim_startup_p50_s", "sim_startup_p99_s", "sim_launches_per_s"):
            metrics[key] = summarize([r[key] for r in reps])
        info = {"launch_fail_frac": self.failed / max(1, self.attempted), "digest": first["digest"]}
        if "paper_rel_err" in first:
            info["paper_rel_err"] = first["paper_rel_err"]
        return metrics, info

    def per_layer(self):
        traced = [r for r, _, _ in self.traced]
        metrics = {}
        for name in traced[0]["layers"]:
            metrics[name] = summarize([r["layers"][name] for r in traced])
        span_self = {}
        for name in sorted({n for r in traced for n in r["self_s"]}):
            span_self[name] = summarize([r["self_s"].get(name, 0.0) for r in traced])
        for name in ("experiments.cell_begin", "experiments.cell_execute", "experiments.cell_end",
                     "experiments.churn_run", "stats.result_json", "stats.cluster_digest",
                     "cluster.trace_gen", "cluster.place", "cluster.run"):
            metrics[name + "_s"] = span_self.get(name, summarize([0.0]))
        untraced_lps = statistics.median(r["launches_per_s"] for r, _, _ in self.untraced)
        traced_lps = statistics.median(r["launches_per_s"] for r in traced)
        metrics["trace.overhead_frac"] = summarize([untraced_lps / traced_lps - 1.0])
        # Span self times sum to the root span; the rest of the process wall
        # is exec, static init and exit.
        metrics["trace.self_coverage"] = summarize(
            [sum(r["self_s"].values()) / wall for r, _, wall in self.traced])
        return metrics, span_self


def print_table(title, rows):
    print(title)
    print(f"  {'metric':<52} {'unit':<10} {'median':>13} {'q1':>13} {'q3':>13} {'n':>3}")
    for name, unit, s in rows:
        print(f"  {name:<52} {unit:<10} {s['median']:>13.6g} {s['q1']:>13.6g} "
              f"{s['q3']:>13.6g} {s['n']:>3}")


def run_workload(binary, workload, seed, seconds, traced, quick, extra_args):
    timeout_s = QUICK_TIMEOUT_S if quick else WORKLOADS[workload]["timeout_s"]
    run = Run(workload, WORKLOADS[workload]["launches"])
    start = time.monotonic()
    rep_index = 0
    # A traced invocation alternates untraced and traced reps, so the tracing
    # overhead is measured under the same machine conditions.
    plan = [False, True] if traced else [False]
    min_rounds = 1 if quick else (2 if traced else MIN_REPS)
    rounds = 0
    while rounds < min_rounds or (not quick and time.monotonic() - start < seconds):
        for t in plan:
            rep, rss, wall = run_rep(binary, workload, seed, t, quick, rep_index, timeout_s,
                                     extra_args)
            run.add(rep, rss, wall, t)
            rep_index += 1
        rounds += 1
    if not run.untraced or (traced and not run.traced):
        run.problems.append("no rep finished")
    else:
        run.check_identical()
    return run


def emit(run, spec, traced):
    """Prints the tables and returns (contract result line, --out entry)."""
    kind = "per_layer" if traced else "end_to_end"
    metrics = {}
    entry = {"traced": traced, "problems": run.problems}
    if run.untraced and (run.traced or not traced):
        if traced:
            layer, span_self = run.per_layer()
            print_table(f"{run.workload}: self time per span (s, per traced rep)",
                        [(name, "s", s) for name, s in span_self.items()])
            rows = [(m["name"], m["unit"], layer[m["name"]]) for m in spec[kind]]
        else:
            e2e, info = run.end_to_end()
            rows = [(m["name"], m["unit"], e2e[m["name"]]) for m in spec[kind]]
            entry["info"] = info
            for key, value in info.items():
                print(f"  {key} = {value}")
        print_table(f"{run.workload}: {kind.replace('_', '-')} metrics", rows)
        for name, unit, s in rows:
            metrics[name] = {"value": s["median"], "unit": unit}
        entry["metrics"] = {name: dict(s, unit=unit) for name, unit, s in rows}
    result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    return result, entry


def host_info(rep):
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "compiler": rep["compiler"], "build_type": rep["build_type"]}


def merge_out(path, kind, workload, entry, rep):
    """Files this invocation's entry under doc[kind][workload]."""
    path = Path(path)
    doc = json.loads(path.read_text()) if path.is_file() else {}
    doc["host"] = host_info(rep)
    doc.setdefault(kind, {})[workload] = entry
    path.write_text(json.dumps(doc, indent=1) + "\n")


def load_doc(arg):
    """FILE or FILE#i; a file with a "runs" list (BASELINE.json) yields run i
    (default 0)."""
    path, _, index = arg.partition("#")
    doc = json.loads(Path(path).read_text())
    if "runs" in doc:
        doc = doc["runs"][int(index or 0)]
    return doc


def compare(old_arg, new_arg, spec):
    old, new = load_doc(old_arg), load_doc(new_arg)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    any_worse = False
    print(f"{'workload':<14} {'metric':<20} {'old median [q1,q3]':>36} "
          f"{'new median [q1,q3]':>36} {'worse by':>8}  verdict")
    for workload, new_entry in new.get("end_to_end", {}).items():
        old_entry = old.get("end_to_end", {}).get(workload)
        if old_entry is None or "metrics" not in old_entry or "metrics" not in new_entry:
            continue
        for name, m in bounds.items():
            if name not in old_entry["metrics"] or name not in new_entry["metrics"]:
                continue
            o, n = old_entry["metrics"][name], new_entry["metrics"][name]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (n["median"] - o["median"]) / o["median"]
            spread = max((s["q3"] - s["q1"]) / s["median"] for s in (o, n))
            old_spread = (o["q3"] - o["q1"]) / o["median"]
            if worse == 0.0:
                verdict = "within-bound"
            elif spread > m["bound"]:
                all_better = all(sign * (a - b) < 0 for a in n["values"] for b in o["values"])
                verdict = "better" if all_better else "unresolved"
            elif worse > m["bound"]:
                verdict = "worse"
            elif -worse > old_spread:
                verdict = "better"
            else:
                verdict = "within-bound"
            any_worse = any_worse or verdict == "worse"
            fmt = lambda s: f"{s['median']:.6g} [{s['q1']:.6g},{s['q3']:.6g}]"
            print(f"{workload:<14} {name:<20} {fmt(o):>36} {fmt(n):>36} "
                  f"{100 * worse:>+7.2f}%  {verdict}")
    return 1 if any_worse else 0


def quick(binary, spec, extra_args):
    """Every workload at smoke-test size: checks pass and every metric of
    BENCHMARK.json is printed with its unit."""
    ok = True
    for workload in WORKLOADS:
        for traced in (False, True):
            run = run_workload(binary, workload, 1, 0, traced, True, extra_args)
            result, _ = emit(run, spec, traced)
            kind = "per_layer" if traced else "end_to_end"
            missing = [m["name"] for m in spec[kind]
                       if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]
                       or not math.isfinite(result["metrics"][m["name"]]["value"])]
            if not result["correct"] or missing:
                ok = False
                print(f"FAIL {workload} traced={traced}: problems={run.problems} "
                      f"missing={missing}")
    print("bench_e2e_quick:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="merge this workload's results into a JSON file")
    parser.add_argument("--quick", action="store_true", help="smoke test of every workload")
    parser.add_argument("--bin", help="use this fastiov_e2e instead of building one")
    parser.add_argument("--allow-debug", action="store_true",
                        help="let a build without NDEBUG run")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --out files (FILE or BASELINE.json#i)")
    args = parser.parse_args()

    spec = load_benchmark_spec()
    if args.compare:
        return compare(*args.compare, spec)
    binary = Path(args.bin) if args.bin else build()
    extra_args = ["--allow-debug"] if args.allow_debug else []
    if args.quick:
        return quick(binary, spec, extra_args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    run = run_workload(binary, args.workload, args.seed, args.seconds, bool(args.trace), False,
                       extra_args)
    result, entry = emit(run, spec, bool(args.trace))
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    if args.out and (run.untraced or run.traced):
        first = (run.untraced or run.traced)[0][0]
        merge_out(args.out, "per_layer" if args.trace else "end_to_end", args.workload, entry,
                  first)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
