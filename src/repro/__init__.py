"""repro: a performance-model reproduction of Meta's MTIA 2i (ISCA 2025).

The library models an MTIA-2i-class inference accelerator — its PE grid,
memory hierarchy (Local Memory / partitioned SRAM / LPDDR), NoC, and
engines — alongside synthetic DLRM/DHEN/HSTU workloads, the model-chip
co-design machinery (graph passes, autotuning), a serving simulator, and
the productionization studies the paper reports (memory errors and ECC,
overclocking, power provisioning, firmware rollouts, A/B testing), and a
fleet resilience simulator that replays the section 5.5 incident arc.

Quick start::

    from repro import Mtia2iSystem, small_dlrm
    from repro.models.dlrm import build_dlrm
    import dataclasses

    config = small_dlrm()
    system = Mtia2iSystem()
    result = system.deploy(
        lambda b: build_dlrm(dataclasses.replace(config, batch=b)),
        model_name=config.name,
    )
    print(result.report.throughput_samples_per_s)
"""

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core import Mtia2iSystem
    from repro.models import small_dlrm

__version__ = "1.0.0"

# Each top-level name and the subpackage that provides it.  They load on
# first use (PEP 562), so importing one subpackage, say
# ``repro.resilience.policies``, does not import the whole stack.
_MODULE_OF = {"Mtia2iSystem": "repro.core", "small_dlrm": "repro.models"}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})


__all__ = ["Mtia2iSystem", "__version__", "small_dlrm"]
