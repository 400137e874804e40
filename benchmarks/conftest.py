"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it runs the
corresponding experiment runner (timed once through pytest-benchmark's
pedantic mode, since a single run already takes seconds), prints the rows the
paper reports, and asserts the qualitative *shape* of the result — who wins,
roughly by how much, where the trends point — rather than absolute numbers.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import prepare_context
from repro.experiments.reporting import format_table


def run_once(benchmark, func, *args, **kwargs):
    """Time ``func`` exactly once through pytest-benchmark and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)


# Test runs write their tables here, a git-ignored directory, so running the
# suite never rewrites the committed records under ``benchmarks/results/``.
RESULTS_DIR = Path(__file__).parent / ".out"


def show(rows, title):
    """Print rows as an aligned table and persist them under benchmarks/.out/.

    pytest captures stdout by default, so the persisted text files are the
    record of each regenerated table/figure; run with ``-s`` to also see
    them live.  Copy a file into ``benchmarks/results/`` to update the
    committed record.
    """
    table = format_table(rows, title=title)
    print()
    print(table)
    RESULTS_DIR.mkdir(exist_ok=True)
    slug = "".join(ch if ch.isalnum() else "_" for ch in title.lower()).strip("_")
    (RESULTS_DIR / f"{slug[:80]}.txt").write_text(table + "\n")


@pytest.fixture(scope="session")
def mut_context():
    """MUT dataset + trained GCN shared by the MUT-based figures."""
    return prepare_context("MUT", epochs=50, seed=7)


@pytest.fixture(scope="session")
def red_context():
    """REDDIT-BINARY dataset + trained GCN."""
    return prepare_context("RED", epochs=40, seed=7)


@pytest.fixture(scope="session")
def enz_context():
    """ENZYMES dataset + trained GCN."""
    return prepare_context("ENZ", epochs=40, seed=7)


@pytest.fixture(scope="session")
def mal_context():
    """MALNET-TINY dataset + trained GCN."""
    return prepare_context("MAL", epochs=30, seed=7)


@pytest.fixture(scope="session")
def pcq_context():
    """PCQM4Mv2 dataset + trained GCN."""
    return prepare_context("PCQ", epochs=30, seed=7)
