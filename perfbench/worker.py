"""One pass of one workload in a fresh interpreter.

Run by run.py, never by hand:

    python3 perfbench/worker.py --workload W --seed S --trace 0|1 --spawned-at T

T is the parent's time.perf_counter() just before it started this
process; perf_counter is the system-wide monotonic clock on Linux, so
setup_s = (time at the first timed call) - T covers interpreter start,
`import circleforge` and input generation.  The pass result is printed
as one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="where a traced pass writes its spans")
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import mpmath

    import circleforge
    import circleforge.cli  # imports every module of the package

    if not os.path.abspath(circleforge.__file__).startswith(src + os.sep):
        raise SystemExit(f"circleforge imported from {circleforge.__file__}, not from {src}")

    import workloads

    work = workloads.build(args.workload, args.seed, circleforge)
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - args.spawned_at}))
        return

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(circleforge)
        tracer.install()

    prec_before = mpmath.mp.prec
    outputs, errors, item_s, parts = [], {}, [], []
    clock = time.perf_counter
    t_start = clock()
    c_start = time.process_time()
    setup_s = t_start - args.spawned_at
    for i, item in enumerate(work.items):
        if tracer is not None:
            tracer.item = i
        t0 = clock()
        try:
            out = item.run()
        except Exception as exc:  # a failed item is counted, not fatal
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        item_s.append(clock() - t0)
        outputs.append(out)
        parts.append(item.part)
    wall_s = clock() - t_start
    cpu_s = time.process_time() - c_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    prec_after = mpmath.mp.prec

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        if args.spans:
            tracer.write_spans(args.spans)

    # verdicts, outside the timed region and after the trace is read
    verify_error = None
    try:
        verdicts = [bool(v) for v in work.verify(outputs)]
        if len(verdicts) != len(outputs):
            raise RuntimeError(f"{len(verdicts)} verdicts for {len(outputs)} items")
    except Exception:  # an item output the reference cannot check fails them all
        verify_error = traceback.format_exc(limit=3)
        verdicts = [False] * len(outputs)
    for i in errors:
        verdicts[i] = False
    failed = [i for i, ok in enumerate(verdicts) if not ok]
    max_dist = work.max_dist(outputs) if not failed else 0.0

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "item_s": item_s,
        "parts": parts,
        "outputs": workloads.digest_form(outputs),
        "failed": failed,
        "failed_labels": [work.items[i].label for i in failed[:5]],
        "errors": {str(i): e for i, e in list(errors.items())[:5]},
        "verify_error": verify_error,
        "prec_before": prec_before,
        "prec_after": prec_after,
        "max_dist": max_dist,
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
