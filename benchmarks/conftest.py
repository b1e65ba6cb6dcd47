"""Pytest configuration for the benchmark suite.

The shared spec/result helpers live in ``_config.py`` (imported directly by
the benchmark modules); this conftest only makes sure the results directory
exists before any benchmark writes to it.
"""

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session", autouse=True)
def _ensure_results_dir():
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    yield
