"""Property-based tests for repro.power invariants.

Hypothesis drives the thermal and power models with randomized inputs
and checks the physics that must hold for *every* input:

* RC stepping converges to the closed-form steady state for random
  networks, powers, and (oversized) time steps — the explicit-Euler
  sub-stepping can never diverge or settle on the wrong fixed point;
* the per-op activity trace integrates back to the executor's energy
  for random op profiles and temperatures — power attribution splits
  energy, it never creates or destroys it;
* water-filling conserves the budget and never over-grants a chip.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.mtia import mtia2i_spec
from repro.perf.executor import ExecutionReport, OpProfile
from repro.power import RcStage, ThermalNetwork, activity_trace, water_fill

finite = dict(allow_nan=False, allow_infinity=False)

stages = st.lists(
    st.builds(
        RcStage,
        name=st.just("stage"),
        heat_capacity_j_per_c=st.floats(min_value=1.0, max_value=500.0, **finite),
        resistance_c_per_w=st.floats(min_value=0.01, max_value=2.0, **finite),
    ),
    min_size=1,
    max_size=4,
)


def _profile(index, time_s, compute_frac, sram_s, dram_s):
    return OpProfile(
        op_name=f"op{index}",
        op_type="fc",
        time_s=time_s,
        compute_s=time_s * compute_frac,
        issue_s=0.0,
        dram_s=dram_s,
        sram_s=sram_s,
        noc_s=0.0,
        host_s=0.0,
        launch_s=0.0,
        bottleneck="compute",
        dram_bytes=0.0,
        sram_bytes=0.0,
        flops=0.0,
    )


op_specs = st.lists(
    st.tuples(
        st.floats(min_value=1e-6, max_value=0.01, **finite),  # time_s
        st.floats(min_value=0.0, max_value=1.0, **finite),  # compute fraction
        st.floats(min_value=0.0, max_value=0.01, **finite),  # sram_s
        st.floats(min_value=0.0, max_value=0.01, **finite),  # dram_s
    ),
    min_size=1,
    max_size=8,
)


class TestThermalConvergence:
    @given(
        stages=stages,
        power=st.floats(min_value=0.0, max_value=150.0, **finite),
        dt=st.floats(min_value=0.1, max_value=500.0, **finite),
    )
    @settings(max_examples=40, deadline=None)
    def test_stepping_converges_to_closed_form(self, stages, power, dt):
        network = ThermalNetwork(stages, ambient_c=40.0)
        target = network.steady_state(power)
        temps = np.full(len(network.stages), network.ambient_c)
        # March well past the slowest system mode — bounded above by
        # (total C) x (total R), which dominates every eigenvalue of the
        # chain.  Sub-stepping makes any caller dt stable, so grow dt
        # rather than truncate time when the network is slow.
        total_c = sum(s.heat_capacity_j_per_c for s in network.stages)
        horizon = 30.0 * total_c * network.total_resistance_c_per_w
        dt = max(dt, horizon / 3000.0)
        for _ in range(int(np.ceil(horizon / dt)) + 1):
            temps = network.step(temps, power, dt)
        assert np.all(np.isfinite(temps))
        assert np.max(np.abs(temps - target)) < max(0.05, 0.001 * power)

    @given(stages=stages, power=st.floats(min_value=0.0, max_value=150.0, **finite))
    @settings(max_examples=40, deadline=None)
    def test_steady_state_is_a_fixed_point(self, stages, power):
        network = ThermalNetwork(stages, ambient_c=40.0)
        target = network.steady_state(power)
        stepped = network.step(target, power, 10.0)
        assert np.max(np.abs(stepped - target)) < 1e-6

    @given(stages=stages, power=st.floats(min_value=0.0, max_value=150.0, **finite))
    @settings(max_examples=40, deadline=None)
    def test_temperatures_decrease_along_the_chain(self, stages, power):
        network = ThermalNetwork(stages, ambient_c=40.0)
        target = network.steady_state(power)
        assert np.all(np.diff(target) <= 1e-9)
        assert target[-1] >= network.ambient_c - 1e-9


class TestTraceIntegral:
    @given(
        specs=op_specs,
        temperature=st.one_of(
            st.none(), st.floats(min_value=20.0, max_value=120.0, **finite)
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_trace_integrates_to_executor_energy(self, specs, temperature):
        chip = mtia2i_spec()
        profiles = [_profile(i, *spec) for i, spec in enumerate(specs)]
        # The executor's own energy model, reproduced per op.
        leakage = chip.leakage_power_w(temperature)
        dynamic = chip.typical_watts * (1.0 - chip.idle_power_fraction)
        energy = sum(
            p.time_s * (leakage + dynamic * min(1.0, p.compute_s / p.time_s))
            for p in profiles
        )
        report = ExecutionReport(
            chip_name=chip.name,
            model_name="synthetic",
            batch=1,
            op_profiles=profiles,
            dense_hit_rate=1.0,
            sparse_hit_rate=0.0,
            activation_buffer_bytes=0,
            lls_bytes=0,
            llc_bytes=0,
            activations_in_lls=False,
            weight_bytes=0,
            energy_j=energy,
        )
        trace = activity_trace(report, chip, temperature_c=temperature)
        assert trace.energy_j == pytest.approx(report.energy_j, rel=1e-9, abs=1e-15)
        for segment in trace.segments:
            assert segment.compute_w >= -1e-12
            assert segment.sram_w >= -1e-12
            assert segment.lpddr_w >= -1e-12


class TestWaterFill:
    @given(
        demands=st.lists(
            st.floats(min_value=0.0, max_value=100.0, **finite),
            min_size=1,
            max_size=24,
        ),
        budget=st.floats(min_value=0.0, max_value=2000.0, **finite),
    )
    @settings(max_examples=60, deadline=None)
    def test_conserves_budget_and_caps_grants(self, demands, budget):
        demands = np.asarray(demands)
        alloc = water_fill(demands, budget)
        assert np.all(alloc >= -1e-9)
        assert np.all(alloc <= demands + 1e-6)
        expected_total = min(budget, float(demands.sum()))
        assert float(alloc.sum()) == pytest.approx(expected_total, abs=1e-6)

    @given(
        demands=st.lists(
            st.floats(min_value=0.5, max_value=100.0, **finite),
            min_size=2,
            max_size=24,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_scarce_budget_is_shared_fairly(self, demands):
        demands = np.asarray(demands)
        budget = 0.5 * float(demands.sum())
        alloc = water_fill(demands, budget)
        # No chip is starved while another holds more than its demand.
        assert np.all(alloc > 0)
        # A chip that demanded less than the fair share is fully granted.
        fair = budget / len(demands)
        fully_granted = demands <= fair
        assert np.allclose(alloc[fully_granted], demands[fully_granted])
