"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
import wreathfock as wf

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from tracer import layer_metrics, self_times  # noqa: E402
from workloads import OracleError, PullbackDecide, Query, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
WORKLOADS = worker.workloads()


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap, and
    # c [8, 12], which runs past the root's end; a has a child d [2, 3].
    spans = [(0, "groups.root", 0.0, 10.0, None, "q"),
             (1, "wreath.a", 1.0, 4.0, 0, "q"),
             (2, "fock.b", 3.0, 6.0, 0, "q"),
             (3, "fock.c", 8.0, 12.0, 0, "q"),
             (4, "groups.d", 2.0, 3.0, 1, "q")]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0}
    layers = layer_metrics(spans, Counter())
    assert layers["groups.self_s"] == 4.0
    assert layers["wreath.self_s"] == 2.0
    assert layers["fock.self_s"] == 7.0


class Flaky(Workload):
    name = "flaky"

    def queries(self, rng):
        return [Query("ok", {"x": 1}), Query("raises", {"x": 2}), Query("wrong", {"x": 3})]

    def execute(self, q):
        if q.kind == "raises":
            raise RuntimeError("boom")
        return q.params["x"] if q.kind == "ok" else -1

    def check(self, q, result):
        if result != q.params["x"]:
            raise OracleError("wrong answer")


def test_raising_and_wrong_queries_count_as_failed():
    records, failures = [], []
    failed = worker.run_pass(Flaky(), Flaky().queries(None), 1, None, records, failures)
    assert failed == 2
    assert [ok for *_, ok in records] == [True, False, False]
    assert "boom" in failures[0] and "wrong answer" in failures[1]


def test_cli_output_with_a_wrong_digest_counts_as_failed(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    wl = worker.workloads()["cli-session"]
    wl.prepare()
    argv = "group info S3 --format json".split()
    q = Query("group", {"argv": argv, "fixed": True})
    records, failures = [], []
    assert worker.run_pass(wl, [q], 1, None, records, failures) == 0
    wl.digests[" ".join(argv)] = "0" * 64
    assert worker.run_pass(wl, [q], 1, None, records, failures) == 1
    assert "stdout digest" in failures[0]


def test_oracles_catch_a_wrong_result():
    wl = WORKLOADS["fock-levels"]
    q = Query("monomial", {"base": "C2", "n": 3, "mu": ((1, 0, 1), (2, 1, 1))})
    result = wl.execute(q)
    wl.check(q, result)
    bad = type(result)(result.group, [v + (i == 0) for i, v in enumerate(result.values)])
    with pytest.raises(OracleError):
        wl.check(q, bad)
    wl = WORKLOADS["oracle-elements"]
    S3 = wf.catalog_group("S3")
    r = S3.index_of(wf.Permutation((1, 2, 0)))
    q = Query("induce", {"base": "S3", "n": 0, "members": sorted({0, r, S3.mul(r, r)}),
                         "values": [Fraction(1), Fraction(2), Fraction(3)]})
    f, incl, induced = wl.execute(q)
    wl.check(q, (f, incl, induced))
    with pytest.raises(OracleError):
        wl.check(q, (f, incl, induced * 2))


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_queries(name):
    wl = WORKLOADS[name]
    a = wl.queries(random.Random(f"{name}:7:1"))
    b = wl.queries(random.Random(f"{name}:7:1"))
    c = wl.queries(random.Random(f"{name}:8:1"))
    assert a == b and a != c


def test_relabeled_subgroups_keep_their_order():
    pools = [PullbackDecide().subgroup_pool(random.Random(seed)) for seed in (1, 2)]
    assert pools[0] != pools[1]
    for pool in pools:
        for _, degree, gens, order in pool:
            G = wf.group_from_permutation_generators(degree, gens, label="sub")
            assert G.order == order
            assert any(G.elements[g].sign() < 0 for g in G.generator_indices)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(name, trace):
    # the worker stops after the first timed pass
    proc = run_bench(ROOT, "--workload", name, "--seed", "0", "--seconds", "0.01",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if (name, trace) == ("fock-levels", 1):
        # timed passes build their wreath levels, from types alone
        assert result["metrics"]["wreath.level_builds"]["value"] > 0
        assert result["metrics"]["groups.wreath_elements_enumerated"]["value"] == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", NAMES[0], "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
