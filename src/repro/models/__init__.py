"""Workload builders: DLRM, DHEN, HSTU, and the production model zoo."""

from repro.models.dhen import DhenConfig, build_dhen
from repro.models.dlrm import DlrmConfig, EmbeddingBagConfig, build_dlrm, small_dlrm
from repro.models.hstu import HstuConfig, build_hstu
from repro.models.wukong import WukongConfig, build_wukong, scaling_sweep
from repro.models.zoo import (
    figure6_models,
    hc1,
    hc2,
    hc3,
    lc1,
    table1_models,
    table1_row,
)

__all__ = [
    "DhenConfig",
    "DlrmConfig",
    "EmbeddingBagConfig",
    "HstuConfig",
    "WukongConfig",
    "build_dhen",
    "build_dlrm",
    "build_hstu",
    "build_wukong",
    "figure6_models",
    "hc1",
    "hc2",
    "hc3",
    "lc1",
    "scaling_sweep",
    "small_dlrm",
    "table1_models",
    "table1_row",
]
