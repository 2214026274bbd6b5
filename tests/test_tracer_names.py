"""The benchmark's tracer wraps library functions by bare name, so a rename
in the library breaks the benchmark; these tests make that a tier-1
failure.  They only read `perfbench/tracer.py`."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def layer(name: str):
    return importlib.import_module(f"wreathfock.{name}")


@pytest.mark.parametrize("table", ["SPAN_FUNCTIONS", "COUNT_FUNCTIONS"])
def test_traced_functions_exist(table):
    for name, fnames in getattr(tracer, table).items():
        module = layer(name)
        for fname in fnames:
            assert callable(getattr(module, fname, None)), f"{name}.{fname}"


@pytest.mark.parametrize("table", ["SPAN_METHODS", "COUNT_METHODS"])
def test_traced_methods_exist(table):
    # the tracer reads cls.__dict__[name]: the class must define the method
    for name, pairs in getattr(tracer, table).items():
        module = layer(name)
        for cname, mname in pairs:
            cls = getattr(module, cname, None)
            assert isinstance(cls, type), f"{name}.{cname}"
            assert callable(cls.__dict__.get(mname)), f"{name}.{cname}.{mname}"
