"""Tests for the weight-freshness model, plus example smoke tests."""

import subprocess
import sys

import pytest

from repro.arch import mtia1_spec, mtia2i_spec
from repro.perf import weight_update_latency


class TestFreshness:
    def test_eager_orders_of_magnitude_fresher(self):
        """Section 3.3: eager mode enables real-time weight updates."""
        report = weight_update_latency(2 << 30, mtia2i_spec())
        assert report.eager_update_s < 0.1
        assert report.graph_republish_s > 300
        assert report.speedup > 1000

    def test_compression_speeds_updates(self):
        chip = mtia2i_spec()
        raw = weight_update_latency(8 << 30, chip)
        compressed = weight_update_latency(8 << 30, chip, compression_saved_fraction=0.5)
        assert compressed.eager_update_s < raw.eager_update_s

    def test_mtia1_updates_slower_but_same_order(self):
        new = weight_update_latency(1 << 30, mtia2i_spec())
        old = weight_update_latency(1 << 30, mtia1_spec())
        assert old.eager_update_s > new.eager_update_s

    def test_validation(self):
        with pytest.raises(ValueError):
            weight_update_latency(-1, mtia2i_spec())


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "llm_feasibility.py", "capacity_planning.py",
     "sdc_campaign.py", "fleet_failover.py", "codesign_search.py"],
)
def test_fast_examples_run(script):
    """The quick examples execute cleanly end to end (the slow journey
    and productionization examples are exercised by the benchmarks)."""
    result = subprocess.run(
        [sys.executable, f"examples/{script}"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()
