"""circleforge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Run from the repository root.  BENCHMARK.json there defines the workloads
and the metrics.  Each pass over the workload runs in a fresh interpreter
(perfbench/worker.py), because a user of `circleforge exact` pays the cold
caches on every call.  Passes repeat until --seconds are spent; the run
reports medians over passes.  setup_s is the median over several extra
set-up-only processes and the passes themselves.

--trace 0 reports the end-to-end metrics.  --trace 1 makes one untraced
pass and at least two traced ones; it reports the per-layer metrics and
fails the run unless the traced passes reproduce the untraced item outputs
and repeat each other's work counts exactly.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench"
SETUP_PROBES = 5
RUN_CAP_S = 170  # a run must end within 180 s
# units of the report-only figures printed next to the metrics
REPORT_UNITS = {"failed_frac": "ratio", "check_s.p50": "s", "check_s.p90": "s",
                "check_samples": "count", "p1bar_s.small_n": "s", "p1bar_s.mid_n": "s",
                "max_dist": "ratio", "wall_s.untraced": "s"}


class BenchError(Exception):
    pass


def spawn(args, env, timeout):
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, WORKER] + args + ["--spawned-at", repr(time.perf_counter())]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {' '.join(args)}\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed no result: {' '.join(args)}\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    result["process_s"] = time.perf_counter() - t0
    return result


def machine_facts(root, seed):
    import mpmath
    import mpmath.libmp

    digest = hashlib.sha256()
    src = os.path.join(root, "src", "circleforge")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "git_commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit(root):
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def worker_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CIRCLEFORGE_") and k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_passes(base, env, seconds, t_run, traced):
    """Untraced passes until `seconds` are spent; for traced runs one untraced
    reference pass, then traced passes (at least two).

    Another pass starts only while a typical pass still fits, so a run
    stays within `seconds` unless one pass runs slower than the others."""
    passes = []
    t_first = time.perf_counter()
    while True:
        trace = 1 if traced and passes else 0
        extra = ["--trace", str(trace)]
        if trace:
            extra += ["--spans", os.path.join(OUT_DIR, f"spans-{base[1]}.jsonl")]
        remaining = RUN_CAP_S - (time.perf_counter() - t_run)
        passes.append(spawn(base + extra, env, remaining))
        enough = len(passes) >= (3 if traced else 1)
        longest = max(p["process_s"] for p in passes)
        typical = statistics.median(p["process_s"] for p in passes)
        now = time.perf_counter()
        out_of_time = now + typical > t_first + seconds
        near_cap = (now - t_run) + longest > RUN_CAP_S - 5
        if near_cap and not enough:
            raise BenchError("a pass is too long for the time limit of one run")
        if enough and (out_of_time or near_cap):
            return passes


def part_time(p, part):
    return sum(s for s, pt in zip(p["item_s"], p["parts"]) if pt == part)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "circleforge", "__init__.py")):
        print("perfbench: no src/circleforge in the current directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    t_run = time.perf_counter()
    env = worker_env()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        spawn(base + ["--setup-only"], env, RUN_CAP_S)  # warm-up: bytecode, file cache
        setups = [spawn(base + ["--setup-only"], env, RUN_CAP_S)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        passes = run_passes(base, env, args.seconds, t_run, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = []
    attempted = sum(len(p["item_s"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    for p in passes:
        if p["failed"]:
            problems.append(f"failed items: {p['failed_labels']} {p['errors']} {p['verify_error']}")
        if p["prec_before"] != p["prec_after"]:
            problems.append(f"mpmath.mp.prec changed from {p['prec_before']} to {p['prec_after']}")
    if any(p["outputs"] != passes[0]["outputs"] for p in passes):
        problems.append("item outputs differ between passes")

    reference = [p for p in passes if p["layers"] is None]
    traced = [p for p in passes if p["layers"] is not None]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    report = {}
    if args.trace:
        wanted = [m["name"] for m in bench["per_layer"]]
        layers = {}
        for name in wanted:
            if name not in traced[0]["layers"]:
                continue
            values = [p["layers"][name] for p in traced]
            if units[name] == "s":
                layers[name] = statistics.median(values)
            else:
                layers[name] = values[0]
                if any(v != values[0] for v in values):
                    problems.append(f"work count {name} differs between traced passes: {values}")
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - reference[0]["wall_s"])
        layers["rademacher.max_dist"] = reference[0]["max_dist"]
        report["wall_s.untraced"] = reference[0]["wall_s"]
        metrics = layers
    else:
        wanted = [m["name"] for m in bench["end_to_end"]]
        med = lambda f: statistics.median(f(p) for p in passes)
        metrics = {
            "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
            "wall_s": med(lambda p: p["wall_s"]),
            "cpu_s": med(lambda p: p["cpu_s"]),
            "peak_rss_mb": med(lambda p: p["peak_rss_mb"]),
            "checks_per_s": med(lambda p: len(p["item_s"]) / p["wall_s"]),
            "small_s": med(lambda p: part_time(p, "small")),
            "mid_s": med(lambda p: part_time(p, "mid")),
        }
        item_s = [s for p in passes for s in p["item_s"]]
        deciles = statistics.quantiles(item_s, n=10)
        report.update({
            "failed_frac": failed / attempted,
            "check_s.p50": deciles[4],
            "check_s.p90": deciles[8],
            "check_samples": len(item_s),
        })
        if args.workload == "exact":
            report["p1bar_s.small_n"] = metrics["small_s"]
            report["p1bar_s.mid_n"] = metrics["mid_s"]
            report["max_dist"] = passes[0]["max_dist"]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 1

    info = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_probes": setups,
        "machine": machine_facts(root, args.seed),
        "report": report,
        "problems": problems,
    }
    print(json.dumps(info))
    for name in wanted:
        print(f"  {name:44s} {metrics[name]!r:>24} {units[name]}")
    for name, value in report.items():
        print(f"  {name:44s} {value!r:>24} {REPORT_UNITS[name]}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
