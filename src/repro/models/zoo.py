"""The production model zoo: Table 1 classes and the nine Figure 6 models.

The paper's workloads are proprietary; these synthetic stand-ins are
parameterized to land on the *published* coordinates — model size,
FLOPs/sample, batch size, and accelerator count — so the efficiency
sweeps reproduce the paper's shape.  Table 1 gives the class-level
coordinates; section 7 gives the per-model facts used here (LC1 runs at
4K batch, LC2 at 512; HC1 pushes 2K batch with a small footprint; HC2
carries heavy host-side serving features; HC3 is the section 6 case-study
model; HC4 is large and less optimized).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from repro.graph.graph import OpGraph
from repro.models.dhen import DhenConfig, build_dhen
from repro.models.dlrm import DlrmConfig, EmbeddingBagConfig, build_dlrm
from repro.models.hstu import HstuConfig, build_hstu
from repro.units import GiB


@dataclasses.dataclass(frozen=True)
class ZooModel:
    """One production model's serving configuration.

    ``batch`` is the MTIA-autotuned batch size; ``gpu_batch`` the
    GPU-autotuned one.  Batch size is a per-platform tuning knob
    (section 4.1), and GPUs prefer larger batches to amortize launches
    and fill their wider engines — except where the batch is capped by
    the request-coalescing limit of the serving tier, in which case both
    platforms share the cap.
    """

    name: str
    category: str  # retrieval | early_ranking | late_ranking | hstu
    batch: int
    build_at: Callable[[int], OpGraph]
    gpu_batch: Optional[int] = None
    accelerators: int = 1
    # Host-side serving overhead per batch (feature preprocessing etc.),
    # the factor that drags HC2's efficiency (section 7).
    host_overhead_s_per_batch: float = 0.0
    description: str = ""

    def graph(self) -> OpGraph:
        """Build the model graph at the MTIA batch size."""
        return self.build_at(self.batch)

    def graph_at(self, batch: int) -> OpGraph:
        """Build the model graph at an arbitrary batch size."""
        return self.build_at(batch)

    def gpu_graph(self) -> OpGraph:
        """Build the model graph at the GPU-autotuned batch size."""
        return self.build_at(self.gpu_batch or self.batch)


def _embeddings(total_gib: float, num_tables: int, embed_dim: int,
                pooling_factor: float) -> EmbeddingBagConfig:
    """An embedding bag sized to a target total footprint."""
    total_bytes = int(total_gib * GiB)
    rows = max(1, total_bytes // (num_tables * embed_dim * 2))
    return EmbeddingBagConfig(
        num_tables=num_tables,
        rows_per_table=rows,
        embed_dim=embed_dim,
        pooling_factor=pooling_factor,
    )


def _dlrm_zoo_model(
    name: str,
    category: str,
    batch: int,
    hidden: int,
    num_layers: int,
    embedding_gib: float,
    num_tables: int = 32,
    pooling_factor: float = 12.0,
    host_overhead_s_per_batch: float = 0.0,
    accelerators: int = 1,
    gpu_batch: Optional[int] = None,
    description: str = "",
) -> ZooModel:
    """A DLRM-class zoo entry with an MLP stack sized for a FLOP target."""
    config = DlrmConfig(
        name=name,
        batch=batch,
        num_dense_features=hidden,
        bottom_mlp_dims=tuple([hidden] * (num_layers // 2)),
        top_mlp_dims=tuple([hidden] * (num_layers - num_layers // 2)),
        embeddings=(
            _embeddings(embedding_gib, num_tables, embed_dim=128, pooling_factor=pooling_factor),
        ),
    )
    return ZooModel(
        name=name,
        category=category,
        batch=batch,
        build_at=lambda b: build_dlrm(dataclasses.replace(config, batch=b)),
        gpu_batch=gpu_batch,
        accelerators=accelerators,
        host_overhead_s_per_batch=host_overhead_s_per_batch,
        description=description,
    )


def _dhen_zoo_model(
    name: str,
    batch: int,
    hidden: int,
    num_layers: int,
    embedding_gib: float,
    num_tables: int = 64,
    mha_heads: int = 0,
    host_overhead_s_per_batch: float = 0.0,
    accelerators: int = 1,
    gpu_batch: Optional[int] = None,
    description: str = "",
) -> ZooModel:
    """A DHEN-class (high-complexity late-ranking) zoo entry."""
    config = DhenConfig(
        name=name,
        batch=batch,
        hidden_dim=hidden,
        num_layers=num_layers,
        num_dense_features=1024,
        embeddings=(
            _embeddings(embedding_gib, num_tables, embed_dim=128, pooling_factor=15.0),
        ),
        fm_features=32,
        mha_heads=mha_heads,
    )
    return ZooModel(
        name=name,
        category="late_ranking",
        batch=batch,
        build_at=lambda b: build_dhen(dataclasses.replace(config, batch=b)),
        gpu_batch=gpu_batch,
        accelerators=accelerators,
        host_overhead_s_per_batch=host_overhead_s_per_batch,
        description=description,
    )


# ---------------------------------------------------------------------------
# Figure 6: five Low Complexity (15-105 MFLOPS/sample) and four High
# Complexity (480-1000 MFLOPS/sample) production models.
# ---------------------------------------------------------------------------


def lc1() -> ZooModel:
    """LC1: lowest complexity, optimized to a 4K batch — top efficiency."""
    return _dlrm_zoo_model(
        "LC1", "early_ranking", batch=4096, hidden=1024, num_layers=7,
        embedding_gib=8.0, pooling_factor=6.0, gpu_batch=16384,
        description="~15 MF/sample, 4K batch, small footprint",
    )


def lc2() -> ZooModel:
    """LC2: similar complexity to LC1 but serving limits it to 512 batch."""
    return _dlrm_zoo_model(
        "LC2", "early_ranking", batch=512, hidden=1024, num_layers=9,
        embedding_gib=24.0, pooling_factor=10.0, gpu_batch=2048,
        host_overhead_s_per_batch=120e-6,
        description="~20 MF/sample but only 512 batch",
    )


def lc3() -> ZooModel:
    """LC3: mid-band low-complexity ranking model."""
    return _dlrm_zoo_model(
        "LC3", "early_ranking", batch=2048, hidden=1536, num_layers=9,
        embedding_gib=32.0, pooling_factor=12.0, gpu_batch=8192,
        host_overhead_s_per_batch=250e-6,
        description="~45 MF/sample",
    )


def lc4() -> ZooModel:
    """LC4: upper-mid low-complexity model with a larger embedding set."""
    return _dlrm_zoo_model(
        "LC4", "early_ranking", batch=1024, hidden=2048, num_layers=9,
        embedding_gib=48.0, pooling_factor=16.0, gpu_batch=4096,
        host_overhead_s_per_batch=150e-6,
        description="~75 MF/sample",
    )


def lc5() -> ZooModel:
    """LC5: largest LC model, SRAM-friendly working set — high efficiency."""
    return _dlrm_zoo_model(
        "LC5", "early_ranking", batch=2048, hidden=2048, num_layers=12,
        embedding_gib=12.0, pooling_factor=8.0, gpu_batch=8192,
        description="~105 MF/sample, small footprint",
    )


def hc1() -> ZooModel:
    """HC1: small memory footprint lets batch reach 2K — best HC efficiency
    (and the most optimization investment, being revenue-critical)."""
    return _dhen_zoo_model(
        "HC1", batch=2048, hidden=2048, num_layers=28, embedding_gib=20.0,
        num_tables=48, gpu_batch=8192, host_overhead_s_per_batch=600e-6,
        description="~480 MF/sample, 2K batch",
    )


def hc2() -> ZooModel:
    """HC2: heavy host-side serving features — lowest HC efficiency."""
    return _dhen_zoo_model(
        "HC2", batch=256, hidden=3072, num_layers=18, embedding_gib=96.0,
        num_tables=96, host_overhead_s_per_batch=1.2e-3, gpu_batch=512,
        description="~700 MF/sample, host-side overhead",
    )


def hc3() -> ZooModel:
    """HC3: the section 6 case-study model — DHEN with MHA blocks, sharded
    across two accelerators, co-designed for SRAM residency."""
    return _dhen_zoo_model(
        "HC3", batch=512, hidden=4096, num_layers=12, embedding_gib=150.0,
        num_tables=128, mha_heads=8, accelerators=2, gpu_batch=1024,
        description="~940 MF/sample, case-study model",
    )


def hc4() -> ZooModel:
    """HC4: the largest model, less optimization investment."""
    return _dhen_zoo_model(
        "HC4", batch=256, hidden=4096, num_layers=13, embedding_gib=180.0,
        num_tables=128, host_overhead_s_per_batch=0.8e-3, accelerators=2, gpu_batch=512,
        description="~1000 MF/sample, large footprint",
    )


def figure6_models() -> List[ZooModel]:
    """The nine production models of Figure 6, in the paper's order."""
    return [lc1(), lc2(), lc3(), lc4(), lc5(), hc1(), hc2(), hc3(), hc4()]


# ---------------------------------------------------------------------------
# Table 1: model classes across the recommendation funnel.
# ---------------------------------------------------------------------------


def retrieval_model() -> ZooModel:
    """Retrieval: rank ~1M candidates; 50-100 GB, 1-10 MFLOPS/sample."""
    return _dlrm_zoo_model(
        "retrieval", "retrieval", batch=8192, hidden=512, num_layers=5,
        embedding_gib=72.0, num_tables=64, pooling_factor=4.0,
        host_overhead_s_per_batch=2e-3,  # feature preprocessing dominates
        description="front of the funnel; user+ad embeddings on one host",
    )


def early_stage_model() -> ZooModel:
    """Early-stage ranking: 100-300 GB, 10-100 MFLOPS/sample."""
    return _dlrm_zoo_model(
        "early_stage", "early_ranking", batch=2048, hidden=1536, num_layers=10,
        embedding_gib=160.0, num_tables=96, pooling_factor=12.0,
        accelerators=2,
        description="memory-bandwidth bound at high batch",
    )


def late_stage_model() -> ZooModel:
    """Late-stage ranking: 100-300 GB, 200-2000 MFLOPS/sample."""
    return _dhen_zoo_model(
        "late_stage", batch=512, hidden=4096, num_layers=9, embedding_gib=200.0,
        num_tables=128, mha_heads=8, accelerators=2,
        description="final top-100 ranking, DHEN architecture",
    )


def hstu_retrieval_model() -> ZooModel:
    """HSTU retrieval: ~1 TB embeddings, ~10 GFLOPS/request."""
    config = HstuConfig(
        name="hstu_retrieval",
        batch=64,
        hidden_dim=512,
        num_layers=4,
        heads=4,
        mean_seq_len=800,
        max_seq_len=4096,
        num_tables=40,
        rows_per_table=55_000_000,
        embed_dim=256,
    )
    return ZooModel(
        name="hstu_retrieval",
        category="hstu",
        batch=config.batch,
        build_at=lambda b: build_hstu(dataclasses.replace(config, batch=b)),
        accelerators=8,
        description="generative retrieval over hundreds of millions of candidates",
    )


def hstu_ranking_model() -> ZooModel:
    """HSTU ranking: ~2 TB embeddings, ~80 GFLOPS/request."""
    config = HstuConfig(
        name="hstu_ranking",
        batch=64,
        hidden_dim=1024,
        num_layers=6,
        heads=8,
        mean_seq_len=1024,
        max_seq_len=8192,
        num_tables=64,
        rows_per_table=70_000_000,
        embed_dim=256,
    )
    return ZooModel(
        name="hstu_ranking",
        category="hstu",
        batch=config.batch,
        build_at=lambda b: build_hstu(dataclasses.replace(config, batch=b)),
        accelerators=16,
        description="generative ranking with long user histories",
    )


def table1_models() -> List[ZooModel]:
    """The five Table 1 model classes."""
    return [
        retrieval_model(),
        early_stage_model(),
        late_stage_model(),
        hstu_retrieval_model(),
        hstu_ranking_model(),
    ]


@dataclasses.dataclass(frozen=True)
class Table1Row:
    """Measured coordinates of one model class (the Table 1 columns)."""

    model_type: str
    model_size_gb: float
    gflops_per_sample: float
    embedding_fraction: float


def table1_row(model: ZooModel) -> Table1Row:
    """Compute a Table 1 row from a zoo model's graph."""
    graph = model.graph()
    size_bytes = graph.weight_bytes()
    return Table1Row(
        model_type=model.name,
        model_size_gb=size_bytes / 1e9,
        gflops_per_sample=graph.flops_per_sample(model.batch) / 1e9,
        embedding_fraction=graph.embedding_bytes() / size_bytes if size_bytes else 0.0,
    )
