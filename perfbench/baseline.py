"""Measure the end-to-end metrics over many seeds, twice, and record their
spread and whether the two sets agree.

    python3 perfbench/baseline.py --seeds 1-10 [--sets 2] [--write]

A set runs run.py once per (workload, seed), untraced, for BENCHMARK.json's
run_seconds.  For each set this prints, per workload and metric, the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread,
(q3 - q1) / median.  Each later set is then compared with the first: its
median may be worse than the first set's by at most the metric's bound.
With --write the sets and the comparison are stored, with the run
environment and the input pools, under "measured" and "input_pools" in
perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def worsening(first: float, later: float, better: str) -> float:
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def run_set(names: list[str], seeds: list[int], seconds: str, pools: dict) -> dict:
    measured: dict = {}
    for name in names:
        values: dict = {}
        for seed in seeds:
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                   "--seed", str(seed), "--seconds", seconds,
                                   "--trace", "0"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            if proc.returncode != 0:
                raise RuntimeError(proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((HERE / "out" / f"{name}-seed{seed}-trace0.json").read_text())
            pools[name] = record["input_pools"]
            if not result["correct"]:
                raise RuntimeError(f"{name} seed {seed}: {result['failed']} failed queries")
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()), flush=True)
            for m, v in result["metrics"].items():
                values.setdefault(m, []).append(v["value"])
        measured[name] = {m: summarize(v) for m, v in values.items()}
        for m, s in measured[name].items():
            print(f"  {name:16s} {m:16s} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}", flush=True)
    return measured


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    pools: dict = {}
    sets = [run_set(names, args.seeds, str(spec["run_seconds"]), pools)
            for _ in range(args.sets)]

    agreement: dict = {}
    for later in sets[1:]:
        for name in names:
            for m, s in later[name].items():
                first = sets[0][name][m]["median"]
                worse = worsening(first, s["median"], metrics[m]["better"])
                row = agreement.setdefault(name, {}).setdefault(
                    m, {"bound": metrics[m]["bound"], "worsening": []})
                row["worsening"].append(worse)
                row["within_bound"] = max(row["worsening"]) <= metrics[m]["bound"]
                print(f"  {name:16s} {m:16s} later set worse by {worse:+.4f} "
                      f"(bound {metrics[m]['bound']})")
    if args.write:
        record = json.loads((HERE / "out" / f"{names[-1]}-seed{args.seeds[-1]}-trace0.json")
                            .read_text())
        doc = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        doc["input_pools"] = pools
        doc["measured"] = {"git_sha": record["git_sha"], "python": record["python"],
                           "nproc": record["nproc"], "run_seconds": spec["run_seconds"],
                           "seeds": args.seeds, "sets": sets, "agreement": agreement}
        BASELINE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
