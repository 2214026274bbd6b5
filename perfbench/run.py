"""The wreathfock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the library is imported from
src/, nothing needs installing).  NAME is one of the workloads in
BENCHMARK.json, or `all` to run each in turn.  Every run:

1. starts one worker process (worker.py), a closed-loop client that runs
   the seeded query passes for S seconds, checks every result with an
   oracle outside the timed region, and between passes times fresh
   processes that import wreathfock and build the workload's catalog
   groups (setup_s is their median);
2. prints a table of the metrics, then, as the last line, one JSON object
   with the keys correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
worker runs once untraced and once with the library wrapped by tracer.py;
the metrics are then the per-layer ones, per timed pass, plus the tracing
overhead.  Each run also writes a record (environment, seed, query count,
metrics, failures) and, when traced, its spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER_TIMEOUT_S = 170
CLI_FAMILIES = ("startup", "group", "wreath", "pullback", "fock", "golden")
# per-layer metrics that are not sums over the timed passes
NOT_PER_PASS = ("cli.", "golden.", "trace.overhead_s")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def clean_env() -> dict:
    """The worker's environment: the checkout's src/ on the path, hashing
    pinned, and neither an element-cap override nor any other PYTHON*
    setting (bytecode writing, optimization, ...) from the caller's shell."""
    env = {k: v for k, v in os.environ.items()
           if k != "WREATHFOCK_MAX_ORDER" and not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    # its own session, so a timeout also stops the CLI processes it started
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(res: dict) -> dict:
    lat = [r[2] for r in res["records"]]
    return {
        # the mean, not the median: on a shared host the time of a short
        # pass can jump between two speeds, and a median jumps with it
        "wall_s": statistics.fmean(res["pass_walls"]),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_p90_ms": percentile(lat, 90) * 1000,
        "setup_s": statistics.median(res["setup_times"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
    }


def per_layer(traced: dict, untraced: dict, names: list[str]) -> dict:
    passes = traced["timed_passes"]
    layers = traced.get("layers", {})
    out = {}
    for name in names:
        v = layers.get(name, 0)
        out[name] = v if name.startswith(NOT_PER_PASS) else v / passes
    by_family: dict = {}
    for _, kind, lat, _ in untraced["records"]:
        by_family.setdefault(kind, []).append(lat)
    for fam in CLI_FAMILIES:
        name = f"cli.{fam}_ms"
        if name in out and fam in by_family:
            out[name] = statistics.median(by_family[fam]) * 1000
    out["trace.overhead_s"] = (statistics.fmean(traced["pass_walls"])
                               - statistics.fmean(untraced["pass_walls"]))
    return out


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = spec()
    env = clean_env()
    OUT.mkdir(exist_ok=True)
    untraced = run_worker(workload, seed, seconds, False, env)
    if trace:
        traced = run_worker(workload, seed, seconds, True, env)
        declared = bench["per_layer"]
        values = per_layer(traced, untraced, [m["name"] for m in declared])
        runs = [untraced, traced]
    else:
        declared = bench["end_to_end"]
        values = end_to_end(untraced)
        runs = [untraced]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "python": platform.python_version(),
              "nproc": os.cpu_count(), "git_sha": git_sha(),
              "queries_per_pass": untraced["queries_per_pass"],
              "input_pools": untraced["pools"],
              "timed_passes": [r["timed_passes"] for r in runs],
              "failures": [f for r in runs for f in r["failures"]],
              "result": result}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def show(record: dict) -> None:
    res = record["result"]
    print(f"# {record['workload']} seed={record['seed']} python={record['python']} "
          f"nproc={record['nproc']} sha={record['git_sha']} "
          f"queries/pass={record['queries_per_pass']} passes={record['timed_passes']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    for f in record["failures"]:
        print("# FAILED " + f.replace("\n", "\n#   "))
    for name, m in res["metrics"].items():
        print(f"{record['workload']:16s} {name:36s} {m['value']:14.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "wreathfock" / "__init__.py").is_file():
        print(f"error: no wreathfock source under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec()["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        print(f"error: unknown workload {args.workload!r}; one of {names} or all",
              file=sys.stderr)
        return 2
    records = []
    for name in chosen:
        t0 = time.perf_counter()
        records.append(run_one(name, args.seed, args.seconds, bool(args.trace)))
        show(records[-1])
        print(f"# {name}: {time.perf_counter() - t0:.1f} s", flush=True)
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
