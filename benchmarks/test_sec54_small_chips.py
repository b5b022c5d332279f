"""Section 5.4: advantages of smaller chips for inference.

Paper: production showed an *additional* 5-90% Perf/TCO and Perf/Watt
gain over offline replay, because capacity must buffer highly variable
user load and is allocated in whole-device quanta — larger, underutilized
devices waste more.  Measured here: the utilization gap between
provisioning a diurnal load with 85 W MTIA chips versus 700 W-class
GPUs, across service sizes.
"""

from repro.fleet import production_gain, production_utilization


def _sweep():
    mtia_tput, gpu_tput = 100_000.0, 350_000.0
    rows = []
    for gpu_equivalents in (0.15, 0.3, 0.5, 1, 2, 4, 8, 32):
        load = gpu_equivalents * gpu_tput
        mtia_util = production_utilization(mtia_tput, load)
        gpu_util = production_utilization(gpu_tput, load)
        gain = production_gain(mtia_tput, gpu_tput, load)
        rows.append((gpu_equivalents, mtia_util, gpu_util, gain))
    return rows


def test_sec54_small_chips(benchmark, record):
    rows = benchmark(_sweep)
    lines = [
        f"{'service size':>12} {'MTIA util':>10} {'GPU util':>9} {'prod gain':>10}"
    ]
    gains = []
    for size, mtia_util, gpu_util, gain in rows:
        gains.append(gain)
        lines.append(
            f"{size:>10.1f}x {mtia_util.mean_utilization:10.0%} "
            f"{gpu_util.mean_utilization:9.0%} {gain:10.2f}x"
        )
    lines.append(
        "\nproduction gain = MTIA/GPU utilization ratio under peak-"
        "provisioned diurnal load (paper: 5% to 90% extra Perf/TCO)"
    )
    # Small and mid-size services show the gain; it shrinks at scale.
    assert max(gains) >= 1.2
    assert max(gains) <= 4.0
    assert gains[-1] <= gains[0]  # granularity matters less at scale
    # Gains in (or spanning) the paper's 5-90% band for several sizes.
    in_band = [g for g in gains if 1.03 <= g <= 1.9]
    assert len(in_band) >= 3
    record("sec54_small_chips", "\n".join(lines))
