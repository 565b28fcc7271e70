import numpy as np
import pytest
from hypothesis import settings

from aqnn import (
    Dataset,
    SyntheticGenConfig,
    generate_synthetic,
    oracle_model,
    proxy_model,
)

# Hypothesis's per-example deadline measures host speed, not correctness.
settings.register_profile("aqnn", deadline=None)
settings.load_profile("aqnn")


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: release acceptance criterion")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" in nodeid and getattr(rep, "when", "call") == "call":
                rows.append((nodeid.split("::")[-1], outcome == "passed"))
    if rows:
        terminalreporter.write_sep("=", "acceptance criteria")
        for name, ok in sorted(rows):
            terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {name}")


@pytest.fixture(scope="session")
def clean_ds():
    """Zero-noise population: proxy embeddings equal oracle embeddings."""
    return generate_synthetic(
        SyntheticGenConfig(n_objects=3000, embedding_dim=16, n_clusters=6, seed=101)
    )


@pytest.fixture(scope="session")
def noisy_ds():
    """Moderately noisy proxy embeddings."""
    return generate_synthetic(
        SyntheticGenConfig(
            n_objects=3000, embedding_dim=16, n_clusters=6, proxy_noise_sigma=0.8, seed=202
        )
    )


@pytest.fixture(scope="session")
def tiny_ds():
    """Hand-built 8-object dataset in 2-d with easy geometry."""
    oracle = np.array(
        [
            [0.0, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [2.0, 0.0],
            [0.0, 2.0],
            [3.0, 4.0],
            [10.0, 10.0],
            [-10.0, 10.0],
        ]
    )
    attrs = np.array([70.0, 72.0, 74.0, 76.0, 78.0, 80.0, 90.0, 95.0])
    return Dataset(
        attrs=attrs,
        features=oracle,
        oracle_emb=oracle,
        proxy_emb=oracle.copy(),
        attr_bounds=(50.0, 120.0),
    )


@pytest.fixture(scope="session")
def models():
    return oracle_model(), proxy_model()
