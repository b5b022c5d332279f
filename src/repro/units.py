"""Unit constants and formatting helpers.

Conventions used throughout the library:

* capacities are in **bytes**, with binary prefixes (``KiB``/``MiB``/``GiB``)
  for on-chip memories, matching how SRAM sizes are specified;
* bandwidths are in **bytes/second**, with decimal prefixes (``GB``/``TB``)
  matching datasheet convention (e.g. LPDDR5 at 204.8 GB/s);
* time is in **seconds**; frequency in **Hz**; compute in **FLOP/s**;
* power in **watts**; cost in **dollars**.
"""

from __future__ import annotations

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

GB = 1_000_000_000
TB = 1_000_000_000_000

MHZ = 1_000_000.0
GHZ = 1_000_000_000.0

US = 1e-6
MS = 1e-3
NS = 1e-9

TFLOPS = 1e12


def fmt_bytes(num_bytes: float) -> str:
    """Human-readable byte count with binary prefixes."""
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024 or unit == "TiB":
            return f"{value:.4g} {unit}"
        value /= 1024
    raise AssertionError("unreachable")


def fmt_bandwidth(bytes_per_s: float) -> str:
    """Human-readable bandwidth with decimal prefixes."""
    value = float(bytes_per_s)
    for unit in ("B/s", "KB/s", "MB/s", "GB/s", "TB/s"):
        if abs(value) < 1000 or unit == "TB/s":
            return f"{value:.4g} {unit}"
        value /= 1000
    raise AssertionError("unreachable")


def fmt_time(seconds: float) -> str:
    """Human-readable duration."""
    if seconds == 0:
        return "0 s"
    if abs(seconds) < 1e-6:
        return f"{seconds / NS:.4g} ns"
    if abs(seconds) < 1e-3:
        return f"{seconds / US:.4g} us"
    if abs(seconds) < 1.0:
        return f"{seconds / MS:.4g} ms"
    return f"{seconds:.4g} s"


def fmt_flops(flops_per_s: float) -> str:
    """Human-readable FLOP/s."""
    value = float(flops_per_s)
    for unit in ("FLOP/s", "KFLOP/s", "MFLOP/s", "GFLOP/s", "TFLOP/s", "PFLOP/s"):
        if abs(value) < 1000 or unit == "PFLOP/s":
            return f"{value:.4g} {unit}"
        value /= 1000
    raise AssertionError("unreachable")
