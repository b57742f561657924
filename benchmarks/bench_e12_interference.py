"""E12 — discovery under primary-user interference (extension).

Times CSEEK with 30% short-burst channel occupancy and asserts the
schedule slack absorbs it.
"""

from __future__ import annotations

from repro.core import CSeek, verify_discovery
from repro.sim import MarkovTraffic


def bench_cseek_under_interference(benchmark, regular_net):
    """CSEEK with 30% primary-user occupancy (dwell 4 slots)."""
    channels = sorted(regular_net.assignment.universe())
    # Stream seed 2 + 7 = 9.
    traffic = MarkovTraffic(
        channels, activity=0.3, mean_dwell=4.0, seed_offset=7
    )

    def run():
        return CSeek(regular_net, seed=2, environment=traffic).run()

    result = benchmark(run)
    assert verify_discovery(result, regular_net).success
