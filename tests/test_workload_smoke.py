"""The benchmark's in-process workloads call the library by name and check
every result with an oracle, so a library change can make a benchmark run
fail or report wrong outputs.  These tests run one seeded pass of each such
workload, every query executed and checked, so that shows as a tier-1
failure first.  They only read `perfbench/workloads.py`.

Caches are left as they are: the catalog groups here are shared with the
session fixtures, so `fresh_caches()` is not called.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the module runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", ["pullback-decide", "fock-levels",
                                  "oracle-elements"])
def test_one_seeded_pass_executes_and_checks(name):
    wl = workloads.WORKLOADS[name]
    wl.prepare()
    queries = wl.queries(random.Random(17))
    assert queries
    for q in queries:
        wl.check(q, wl.execute(q))
