"""Shared fixtures: the seeded corpus and one full solve sweep over it.

The solve sweep is session-scoped because three different acceptance checks
(optimality, branch monotonicity, determinism) read the same counters; it is
computed lazily on first use.
"""

import time

import pytest

from corpus import corpus_pairs
from mcis import CONFIG_NAMES, SolverConfig, solve


@pytest.fixture(scope="session")
def corpus():
    return corpus_pairs()


def run_corpus(pairs):
    """Solve every pair under every configuration; returns {(index, config): stats}."""
    out = {}
    for pair in pairs:
        for name in CONFIG_NAMES:
            sol = solve(pair.g, pair.h, SolverConfig(name))
            st = sol.stats
            out[(pair.index, name)] = (
                st.branches,
                st.bound_prunes,
                st.var_sym_prunes,
                st.val_sym_prunes,
                st.incumbent_size,
                st.branches_to_best,
            )
    return out


@pytest.fixture(scope="session")
def corpus_runs(corpus):
    """(stats dict, wall seconds) for one sweep of the corpus."""
    start = time.perf_counter()
    out = run_corpus(corpus)
    return out, time.perf_counter() - start
