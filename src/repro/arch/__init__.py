"""Accelerator and server specifications (paper Table 2 and section 3.4)."""

from repro.arch.describe import (
    PE_FIXED_FUNCTION_UNITS,
    PE_PROCESSORS,
    SOFTWARE_STACK_LAYERS,
    describe_chip,
    describe_pe,
    describe_software_stack,
)
from repro.arch.gpu import gpu_spec
from repro.arch.mtia import mtia1_spec, mtia2i_spec
from repro.arch.nextgen import mtia_nextgen_spec
from repro.arch.server import gpu_server, grand_teton_socket, mtia2i_server
from repro.arch.specs import spec_ratio

__all__ = [
    "PE_FIXED_FUNCTION_UNITS",
    "PE_PROCESSORS",
    "SOFTWARE_STACK_LAYERS",
    "describe_chip",
    "describe_pe",
    "describe_software_stack",
    "gpu_server",
    "gpu_spec",
    "grand_teton_socket",
    "mtia1_spec",
    "mtia2i_server",
    "mtia2i_spec",
    "mtia_nextgen_spec",
    "spec_ratio",
]
