import sys
from functools import lru_cache
from pathlib import Path

import pytest

from cliquedyn import canonical_form

sys.path.insert(0, str(Path(__file__).parent))

from oracles import enumerate_regular_brute  # noqa: E402


@pytest.fixture(scope="session")
def brute_regular_forms():
    """Canonical forms of enumerate_regular_brute(k, n), built once per (k, n) per session.

    The brute-force census at (3, 8) takes several seconds, and both the
    acceptance suite and the enumeration tests compare against it.
    """

    @lru_cache(maxsize=None)
    def forms(k: int, n: int) -> frozenset:
        return frozenset(canonical_form(g) for g in enumerate_regular_brute(k, n))

    return forms


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running census/enumeration tests")


def pytest_addoption(parser):
    parser.addoption(
        "--skip-slow", action="store_true", default=False, help="skip slow tests"
    )


def pytest_collection_modifyitems(config, items):
    if not config.getoption("--skip-slow"):
        return
    marker = pytest.mark.skip(reason="--skip-slow given")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(marker)
