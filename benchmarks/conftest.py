"""Shared benchmark fixtures.

Every benchmark regenerates (a slice of) one of the E1-E12 experiments
registered in `repro.scenarios.paper`; `pytest benchmarks/
--benchmark-only` therefore both times the implementation and
re-derives that experiment's rows.
Benchmarks print their table via ``print`` so ``-s`` shows the rows.
"""

from __future__ import annotations

import pytest

from repro.core.constants import ProtocolConstants
from repro.graphs import build_network, path_of_cliques, random_regular, star


@pytest.fixture(scope="session")
def constants() -> ProtocolConstants:
    return ProtocolConstants.fast()


@pytest.fixture(scope="session")
def regular_net():
    """20-node 4-regular, c=8, k=2 — the standard discovery workload."""
    return build_network(random_regular(20, 4, seed=7), c=8, k=2, seed=11)


@pytest.fixture(scope="session")
def crowded_star_net():
    """33-leaf star with a global 2-channel core — crowded channels."""
    return build_network(star(33), c=8, k=2, seed=5, kind="global_core")


@pytest.fixture(scope="session")
def clique_chain_net():
    """4 cliques of 4 — a D~7 broadcast workload."""
    return build_network(path_of_cliques(4, 4), c=8, k=1, seed=3)
