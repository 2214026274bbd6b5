from __future__ import annotations

import pytest
from hypothesis import settings

from wreathfock.catalog import catalog_group

# Every property test draws the same examples on every run, and none reads
# or writes an example database, so no result depends on an earlier run.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def C2():
    return catalog_group("C2")


@pytest.fixture(scope="session")
def C3():
    return catalog_group("C3")


@pytest.fixture(scope="session")
def C4():
    return catalog_group("C4")


@pytest.fixture(scope="session")
def S3():
    return catalog_group("S3")


@pytest.fixture(scope="session")
def D12():
    return catalog_group("D12")


@pytest.fixture(scope="session")
def Dic3():
    return catalog_group("Dic3")


@pytest.fixture(scope="session")
def trivial():
    return catalog_group("trivial")
