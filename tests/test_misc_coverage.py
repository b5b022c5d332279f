"""Coverage for smaller API surfaces not exercised elsewhere."""

import pytest

from repro.arch import mtia2i_spec
from repro.autotune import tune_coalescing
from repro.memory import MemoryHierarchy, Placement
from repro.models.hstu import HstuConfig
from repro.perf import Executor
from repro.serving import ModelJobProfile
from repro.tensors import weight


class TestHierarchyStats:
    def test_llc_hit_rate_tracks_accesses(self):
        hierarchy = MemoryHierarchy(mtia2i_spec())
        w = weight(512, 512)
        hierarchy.place(w, Placement.LLC)
        hierarchy.read(w)
        cold = hierarchy.llc_hit_rate()
        hierarchy.read(w)
        warm = hierarchy.llc_hit_rate()
        assert warm > cold

    def test_hierarchy_rejects_oversized_partition(self):
        from repro.memory import SramPartition

        chip = mtia2i_spec()
        too_big = SramPartition(
            lls_bytes=chip.sram.capacity_bytes,
            llc_bytes=chip.sram_partition_bytes,
            granularity_bytes=chip.sram_partition_bytes,
        )
        with pytest.raises(ValueError):
            MemoryHierarchy(chip, too_big)


class TestHstuHelpers:
    def test_seed_reproducible_lengths(self):
        config = HstuConfig(
            name="h", batch=32, hidden_dim=64, num_layers=1, heads=2,
            mean_seq_len=50, max_seq_len=200, num_tables=2,
            rows_per_table=1000, embed_dim=32, seed=9,
        )
        assert config.sample_seq_lengths() == config.sample_seq_lengths()


class TestExecutorOptions:
    def test_warmup_validation(self):
        import dataclasses as dc

        from repro.models.dlrm import build_dlrm, small_dlrm

        graph = build_dlrm(dc.replace(small_dlrm(), batch=128))
        with pytest.raises(ValueError):
            Executor(mtia2i_spec()).run(graph, 128, warmup_runs=-1)


class TestCoalescingTunerFast:
    def test_tiny_sweep_returns_best(self):
        profile = ModelJobProfile(
            remote_time_s=0.001, merge_time_s=0.002, remote_jobs_per_batch=1,
            dispatch_overhead_s=0.0002,
        )
        result = tune_coalescing(
            profile,
            max_batch_samples=256,
            windows_s=(0.005, 0.020),
            parallel_windows=(2,),
            duration_s=5.0,
        )
        assert len(result.candidates) == 2
        assert result.best.outcome.served_samples_per_s == max(
            c.outcome.served_samples_per_s for c in result.candidates
        )
