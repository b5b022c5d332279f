"""The cluster simulator's hook-free event loop.

:meth:`ClusterSimulator.run <repro.cluster.simulator.ClusterSimulator.run>`
hands a run to :func:`run_plain` when nothing is attached that could
fault, partition, retry, throttle, rescale or observe the tier, so
arrivals and departures are the only events.  The simulator's general
loop stays the oracle (``engine="reference"`` always takes it).

The loop lives apart from :mod:`repro.cluster.simulator` for memory, not
structure: imported from source, without cached bytecode, the compiler's
peak for the largest module sets a floor under the process's peak RSS,
and this loop inside ``simulator.py`` raised that floor by 0.7 MiB.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, List, Tuple

if TYPE_CHECKING:
    from repro.cluster.simulator import ClusterSimulator, _Replica

# Service-time blocks: the first after the start or a rewind, doubling
# from there to the last.
_FIRST_BLOCK = 16
_LAST_BLOCK = 1024


def run_plain(
    sim: "ClusterSimulator", arrivals: List[float], slo_budget: int
) -> Tuple[List[int], float, int, int, int, float, int, int]:
    """Run ``sim`` hook-free: ``ClusterSimulator._run_general`` with
    every hook removed and route, start, depart and next-from-queue
    inlined.  Returns the still-pending request indices (non-empty
    only when a ``fail_fast`` certificate stopped the run early), then
    the run's tallies: the clock, served, shed, cross-host served, busy
    seconds, over-SLO count and outstanding total.

    Arrivals are a stable sort of request indices by time, exactly
    the order ``EventEngine.schedule_batch`` stages them in, merged
    with a local heap of ``(depart_time, seq, replica)`` entries.
    An arrival wins a timestamp tie, because every staged arrival's
    sequence number is below every departure's; departures tie FIFO
    by ``seq``.  Nothing can fault or partition, so every replica
    stays up, no departure goes stale, and replica ids are the
    positions ``0..n-1`` of the id-ordered replica list.

    Routing is each policy of :mod:`repro.cluster.routing`, inlined
    with the tie-breaks, spill rule and draw order its docstring
    defines.  ``jsq`` and ``locality`` read a least-outstanding
    index instead of scanning: per shard group (``jsq`` has one),
    one bitmask over replica positions per queue depth, plus the
    group's minimum depth.  The route is the lowest set bit at the
    minimum depth (the lowest id, the policies' tie-break), a
    minimum at or above the admission cap means no admissible
    candidate, and an arrival or departure moves one bit.  Every
    other route (``round_robin``, ``po2``, and ``locality`` once the
    index finds no local replica below the spill depth) is the
    policy's own ``choose`` over the admissible list: the static
    replica list while no replica sits at the admission cap, else the
    cap filter.

    While routing draws nothing (``round_robin``, ``jsq``, and
    ``locality`` until it spills), service times are drawn
    ``lognormal(mu, sigma, size=k)`` in blocks, the generator state
    saved before each one.  A ``locality`` spill, whose po2 pair draws,
    and the loop's exit each rewind an unfinished block: restore the
    saved state, then redraw only the times consumed.  So the generator is consumed
    in the general loop's order, and is left in its state.
    """
    order = sorted(range(len(arrivals)), key=arrivals.__getitem__)
    times = [arrivals[index] for index in order]
    shards = sim._shards
    replicas = list(sim._replicas.values())
    assert all(r.replica_id == i for i, r in enumerate(replicas))
    admission = sim.config.admission
    cap = admission.max_outstanding_per_replica
    max_total = admission.max_total_outstanding
    name = sim.config.policy
    rng = sim._rng
    bit_generator = rng.bit_generator
    # ``ServiceModel.sample``, inlined: the same expression, the
    # same draw.
    service = sim.service
    mean_s = service.mean_service_s
    sigma = service.jitter_sigma
    mu = service._lognormal_mu
    penalty = service.cross_host_penalty
    lognormal = rng.lognormal
    multi_shard = sim.locality.num_shards > 1
    slo_s = sim.config.p99_slo_s
    fail_fast = sim._fail_fast
    log = sim._event_log.append
    record_latency = sim._latencies.append
    heappush = heapq.heappush
    heappop = heapq.heappop
    departs: List[Tuple[float, int, "_Replica"]] = []
    seq = 0
    saturated = 0  # replicas at the admission cap
    total = served = shed = cross_served = slo_over = 0
    busy = 0.0
    now = 0.0
    n = len(order)
    next_arrival = 0

    # Routing (see each policy's docstring in repro.cluster.routing):
    # ``jsq`` and ``locality`` read the least-outstanding index;
    # every policy but ``jsq`` may call ``choose`` over the admissible
    # list, ``locality`` only once it spills.
    choose = sim.policy.choose
    indexed = name in ("jsq", "locality")
    listed = name != "jsq"
    by_shard = name == "locality"
    # ``jsq`` routes below the cap; ``locality`` also below its spill.
    local_limit = cap
    if by_shard:
        local_limit = min(cap, sim.policy.spill_outstanding)
    bits = [1 << position for position in range(len(replicas))]
    groups = sim.locality.num_shards if by_shard else 1
    group_of = [r.shard if by_shard else 0 for r in replicas]
    # Depth never exceeds the cap, nor the requests routed so far.
    masks = [[0] * (min(cap, n) + 1) for _ in range(groups)]
    min_depth = [cap] * groups  # >= cap: no admissible replica
    for position, group in enumerate(group_of):
        masks[group][0] |= bits[position]
        min_depth[group] = 0

    block = None
    used = block_len = 0
    saved = None
    block_size = _FIRST_BLOCK
    blocked = sigma != 0 and name != "po2"

    while not (fail_fast and (shed or slo_over > slo_budget)):
        if next_arrival < n and (
            not departs or times[next_arrival] <= departs[0][0]
        ):
            index = order[next_arrival]
            now = times[next_arrival]
            next_arrival += 1
            shard = shards[index]
            chosen = None
            if max_total is None or total < max_total:
                if indexed:
                    group = shard if by_shard else 0
                    depth = min_depth[group]
                    if depth < local_limit:
                        mask = masks[group][depth]
                        chosen = replicas[(mask & -mask).bit_length() - 1]
                if chosen is None and listed:
                    if saturated:
                        candidates = [r for r in replicas if r.outstanding < cap]
                    else:
                        candidates = replicas
                    if candidates:
                        if by_shard and used < block_len:
                            # A spill draws its po2 pair.
                            bit_generator.state = saved
                            lognormal(mu, sigma, size=used)
                            used = block_len = 0
                            block_size = _FIRST_BLOCK
                        chosen = choose(candidates, shard, rng)
            if chosen is None:
                shed += 1
                log((now, "shed", index))
                continue
            depth = chosen.outstanding
            chosen.outstanding = depth + 1
            if depth + 1 == cap:
                saturated += 1
            if indexed:
                position = chosen.replica_id
                group = group_of[position]
                levels = masks[group]
                levels[depth] ^= bits[position]
                levels[depth + 1] |= bits[position]
                if depth == min_depth[group] and not levels[depth]:
                    min_depth[group] = depth + 1
            total += 1
            cross = multi_shard and chosen.shard != shard
            if chosen.in_service is not None:
                chosen.queue.append((index, cross))
                continue
            replica = chosen
        elif departs:
            now, _, replica = heappop(departs)
            index = replica.in_service
            latency = now - arrivals[index]
            record_latency(latency)
            if latency > slo_s:
                slo_over += 1
            served += 1
            log((now, "serve", index))
            if replica.in_service_cross:
                cross_served += 1
            depth = replica.outstanding
            if depth == cap:
                saturated -= 1
            replica.outstanding = depth - 1
            if indexed:
                position = replica.replica_id
                group = group_of[position]
                levels = masks[group]
                levels[depth] ^= bits[position]
                levels[depth - 1] |= bits[position]
                if depth - 1 < min_depth[group]:
                    min_depth[group] = depth - 1
            total -= 1
            if not replica.queue:
                replica.in_service = None
                continue
            index, cross = replica.queue.popleft()
        else:
            break
        # Start service of ``index`` on ``replica``.
        if sigma == 0:
            base = mean_s
        elif blocked:
            if used == block_len:
                saved = bit_generator.state
                # No more than the starts still to come.
                block_len = min(block_size, n - next_arrival + total)
                # A memoryview makes each float as it is read; a
                # ``tolist`` of the block raised peak RSS measurably.
                block = memoryview(lognormal(mu, sigma, size=block_len))
                used = 0
                block_size = min(2 * block_size, _LAST_BLOCK)
            base = block[used]
            used += 1
        else:
            base = lognormal(mu, sigma)
        service_s = base * (penalty if cross else 1.0)
        replica.in_service = index
        replica.in_service_cross = cross
        busy += service_s
        seq += 1
        heappush(departs, (now + service_s, seq, replica))

    if used < block_len:
        bit_generator.state = saved
        lognormal(mu, sigma, size=used)
    pending = order[next_arrival:]
    for replica in replicas:
        if replica.in_service is not None:
            pending.append(replica.in_service)
        pending.extend(index for index, _ in replica.queue)
    return (
        sorted(pending), now, served, shed, cross_served, busy, slo_over,
        total,
    )
