"""One closed-loop client: runs a workload's passes in this process and
prints its raw measurements as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace]

Pass 0 is the warm-up: it is checked but not reported.  Timed passes
follow while time remains; each pass draws fresh inputs from (workload,
seed, pass index), so repeating a pass never repeats a query.  Before every
pass the library's caches are emptied (catalog groups, and the classes,
Cayley tables, wreath levels and products kept on them), so every pass
builds its groups and levels again inside the timed region.  A query is
timed on its own; its oracle, and a garbage collection that keeps one
query's garbage out of the next one's time, run after the timer stops.

Between timed passes, SETUP_PROBES fresh processes in all time `import
wreathfock` plus the workload's catalog groups, spaced evenly over the
run, so their median (setup_s) does not hang on a few slow seconds of the
machine.

With --trace, an in-process workload runs with the library wrapped by
tracer.py, and its spans go to out/<workload>-seed<N>.spans.jsonl.gz;
cli-session traces each command in its own process (cli_child.py).

`run.py` starts this with a clean environment: src/ on PYTHONPATH,
PYTHONHASHSEED pinned, and WREATHFOCK_MAX_ORDER and every other PYTHON*
variable removed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
MAX_FAILURES_SHOWN = 5
SETUP_PROBES = 30
PROBE = ("import sys, time\n"
         "t0 = time.perf_counter()\n"
         "import wreathfock\n"
         "for g in sys.argv[1:]:\n"
         "    wreathfock.catalog_group(g)\n"
         "print(time.perf_counter() - t0)\n")


def workloads() -> dict:
    """Every workload by name."""
    from cli_session import CliSession
    from workloads import FockLevels, OracleElements, PullbackDecide
    return {w.name: w for w in (PullbackDecide(), FockLevels(), OracleElements(),
                                CliSession(HERE.parent))}


def setup_probe(groups: list[str]) -> float:
    """Seconds a fresh process takes to import wreathfock and build `groups`."""
    proc = subprocess.run([sys.executable, "-c", PROBE, *groups], cwd=HERE.parent,
                          check=True, capture_output=True, text=True, timeout=60)
    return float(proc.stdout)


def run_pass(wl, queries, pass_index, tracer, records, failures):
    """Run one pass; returns the number of failed queries."""
    failed = 0
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query_id = f"{pass_index}:{i}"
        error = None
        t0 = time.perf_counter()
        try:
            result = wl.execute(q)
        except Exception:  # a raising query fails; the run goes on
            result, error = None, traceback.format_exc(limit=3)
        latency = time.perf_counter() - t0
        if error is None:
            snap = tracer.snapshot() if tracer is not None else None
            try:
                wl.check(q, result)
            except Exception:
                error = traceback.format_exc(limit=3)
            if snap is not None:
                tracer.restore(snap)
        del result
        gc.collect()
        if error is not None:
            failed += 1
            if len(failures) < MAX_FAILURES_SHOWN:
                failures.append(f"pass {pass_index} {q.label()}: {error}")
        records.append((pass_index, q.kind, latency, error is None))
    return failed


def measure(wl, draw, seconds: float, tracer=None) -> dict:
    """The warm-up pass, then timed passes until `seconds` have gone by;
    `draw(pass_index)` gives a pass's queries."""
    from workloads import fresh_caches
    records: list = []
    failures: list = []
    pass_walls: list = []
    setup_times: list = []
    attempted = failed = 0
    trace_start = None
    t_start = time.perf_counter()
    pass_index = 0
    while True:
        snap = tracer.snapshot() if tracer is not None else None
        queries = draw(pass_index)
        fresh_caches()
        gc.collect()
        if snap is not None:
            tracer.restore(snap)
        if pass_index == 1:
            t_start = time.perf_counter()
            if tracer is not None:
                trace_start = tracer.snapshot()
            if not wl.in_process:
                wl.child_layers.clear()
        pass_records: list = []
        failed += run_pass(wl, queries, pass_index, tracer, pass_records, failures)
        attempted += len(queries)
        if pass_index >= 1:
            records += pass_records
            pass_walls.append(sum(r[2] for r in pass_records))
            elapsed = time.perf_counter() - t_start
            due = math.ceil(SETUP_PROBES * min(1.0, elapsed / seconds))
            while len(setup_times) < due:
                setup_times.append(setup_probe(wl.groups))
            if elapsed >= seconds:
                break
        pass_index += 1

    if tracer is not None:
        layers = layer_totals(tracer, trace_start)
    else:
        layers = {} if wl.in_process else wl.layer_totals()
    if wl.in_process:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        peak_rss_mb = wl.peak_rss_mb
    return {
        "workload": wl.name,
        "queries_per_pass": len(queries),
        "timed_passes": len(pass_walls),
        "pass_walls": pass_walls,
        "setup_times": setup_times,
        "records": [[p, kind, lat, ok] for p, kind, lat, ok in records],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "pools": wl.pools,
        "layers": layers,
    }


def layer_totals(tracer, start) -> dict:
    """Per-layer sums over the timed passes (the warm-up and the oracles are
    excluded)."""
    from tracer import layer_metrics
    n_spans, counts0 = start
    counts = tracer.counts.copy()
    counts.subtract(counts0)
    return layer_metrics(tracer.spans[n_spans:], counts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads()[args.workload]
    tracer = None
    if args.trace and wl.in_process:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    wl.prepare(args.trace)
    out = measure(wl, lambda i: wl.queries(random.Random(f"{wl.name}:{args.seed}:{i}")),
                  args.seconds, tracer)
    out["seed"] = args.seed
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{wl.name}-seed{args.seed}.spans.jsonl.gz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
