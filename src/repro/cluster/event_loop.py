"""The cluster simulator's event loop.

:meth:`ClusterSimulator.run <repro.cluster.simulator.ClusterSimulator.run>`
runs every cluster run through :func:`run_events`, hooks or none.  The
simulator owns the run's state and the bookkeeping of each outcome;
this module owns the order events happen in.

The split also saves memory: imported from source without cached
bytecode, the compiler's peak on the largest module sets a floor under
the process's peak RSS, and this loop inside ``simulator.py`` raises
``import repro.cluster`` from 34.5 to 35.7 MiB (Python 3.11).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.cluster.simulator import ClusterSimulator

# Service-time blocks: the first after the start or a rewind, doubling
# from there to the last.
_FIRST_BLOCK = 16
_LAST_BLOCK = 1024

# Event kinds; heap entries are ``(time, seq, kind, entity)``.  A
# departure is kind 0, so the loop tells it apart with one truth test;
# the next three route a copy of a request, by why it is sent.
_DEPART = 0
_ARRIVAL = 1
_CLIENT_RETRY = 2
_FAULT_RETRY = 3
_FAULT = 4
_RECOVER = 5
_INJECT = 6
_CLIENT = 7
_SCALE = 8
# Steps a hook leaves on the work stack, run at the current time before
# the next event: an injected outage of one replica, the re-dispatch of
# one stranded request, and what follows a replica's re-dispatches
# (reboot draw, recovery, retirement).
_DOWN = 9
_RETRY = 10
_SETTLE = 11


class _Targets:
    """The replicas a request may be routed to, and the
    least-outstanding index over them.

    A replica is a target while it is up and reachable; ``live`` lists
    the targets in id order.  When ``indexed``, ``masks[g][d]`` has bit
    ``p`` set when the replica at position ``p`` sits in shard group
    ``g`` at queue depth ``d``, and ``min_depth[g]`` is the group's
    least depth (``cap`` when it has no target).  Replicas that are not
    targets keep their bits in the extra group ``away``, which nothing
    routes from, so the loop moves a bit on every arrival and departure
    without asking which group it is in.
    """

    def __init__(self, replicas, groups, depths, cap, by_shard, indexed):
        self.replicas = replicas
        self.away = groups
        self.depths = depths
        self.cap = cap
        self.by_shard = by_shard
        self.indexed = indexed
        self.masks = [[0] * depths for _ in range(groups + 1)]
        self.min_depth = [cap] * (groups + 1)
        self.bits: List[int] = []
        self.group_of: List[int] = []
        self.live: list = []

    def sync(self, *changed) -> None:
        """Match ``live`` and the index to the ``changed`` replicas'
        states; a new replica takes the next position."""
        bits = self.bits
        group_of = self.group_of
        away = self.away
        moved = False
        for replica in changed:
            position = replica.replica_id
            if position == len(bits):
                bits.append(1 << position)
                group_of.append(away)
            old = group_of[position]
            new = away
            if replica.state == "up" and not replica.partitioned:
                new = replica.shard if self.by_shard else 0
            if new == old:
                continue
            moved = True
            group_of[position] = new
            if not self.indexed:
                continue
            depth = replica.outstanding
            levels = self.masks[old]
            levels[depth] &= ~bits[position]
            self.masks[new][depth] |= bits[position]
            min_depth = self.min_depth
            if depth < min_depth[new]:
                min_depth[new] = depth
            if depth == min_depth[old] and not levels[depth]:
                min_depth[old] = next(
                    (d for d in range(depth + 1, self.depths) if levels[d]),
                    self.cap,
                )
        if moved:
            self.live[:] = [
                r for r in self.replicas if group_of[r.replica_id] != away
            ]


def _rewind(rng, saved, mu: float, sigma: float, used: int) -> None:
    """Restore the generator to before the current service-time block,
    then redraw only the ``used`` times taken from it."""
    rng.bit_generator.state = saved
    rng.lognormal(mu, sigma, size=used)


def run_events(
    sim: "ClusterSimulator", arrivals: List[float], slo_budget: int
) -> Tuple[List[int], float, int, int, float]:
    """Run ``sim`` to completion.  Returns the still-pending request
    indices (for the conservation sweep), then the clock and the
    served, cross-host served and busy-seconds tallies; shed and
    timed-out requests are counted by the simulator's bookkeeping.

    *Event order.*  Arrivals are a stable sort of request indices by
    time; every other event is a ``(time, seq, kind, entity)`` heap
    entry.  Arrivals take sequence numbers ``0..n-1``, the pre-known
    populations follow (faults, injections, client checks, scale
    ticks, each in its own order), then every event pushed while
    running.  Pop order is ``(time, seq)``, so an arrival wins every
    timestamp tie and pushed events tie FIFO.  A hook that re-routes
    work leaves its remaining steps on a work stack, which runs before
    the next event: a fault's stranded requests re-dispatch one at a
    time, each through the one routing stage arrivals take, and the
    reboot draw waits until they are done.  When replicas can fail or
    partition, a departure's ``seq`` is its replica's service token: a
    fault resets the token, so a departure it stranded is stale.

    *Routing* is each policy of :mod:`repro.cluster.routing`, with the
    tie-breaks, spill rule and draw order its docstring defines.
    Replica ids are positions: spawned replicas append, retired ones
    stay.  ``jsq`` and ``locality`` route from the least-outstanding
    index of :class:`_Targets`: the lowest set bit at the group's
    minimum depth is the lowest id, the policies' tie-break, and a
    minimum at or above the admission cap means no admissible target.
    Every other route (``round_robin``, ``po2``, a ``locality`` spill,
    and every route while a circuit breaker is watched) is the policy's
    own ``choose`` over the admissible list: ``live`` while no replica
    sits at the admission cap, else the cap filter, then each watched
    breaker in id order, which counts its own rejections.  The defense
    runtime's ``watched`` map holds the breakers that are not closed
    with no failure counted; any other breaker admits every route and
    ignores dispatches and serves, so while the map is empty no breaker
    is consulted and ``jsq`` and ``locality`` route from the index.

    *Service times.*  While routing draws nothing (``round_robin``,
    ``jsq``, and ``locality`` until it spills), service times are
    drawn ``lognormal(mu, sigma, size=k)`` in blocks, the generator
    state saved before each one.  Before any other draw (a spill's po2
    pair, a reboot time, backoff jitter) and at the loop's exit an
    unfinished block is rewound: restore the saved state, then redraw
    only the times consumed.  So the generator is consumed, and left,
    as by one scalar draw per service start.
    """
    config = sim.config
    order = sorted(range(len(arrivals)), key=arrivals.__getitem__)
    times = [arrivals[index] for index in order]
    n = len(order)
    requests = sim.requests
    shards = sim._shards
    replicas = sim._replicas
    resolved = sim._resolved
    admission = config.admission
    cap = admission.max_outstanding_per_replica
    max_total = admission.max_total_outstanding
    name = config.policy
    rng = sim._rng
    # The service draw: mean-preserving log-normal jitter around
    # ``mean_service_s``, stretched by the cross-host penalty.
    service = sim.service
    mean_s = service.mean_service_s
    sigma = service.jitter_sigma
    mu = service._lognormal_mu
    penalty = service.cross_host_penalty
    lognormal = rng.lognormal
    multi_shard = sim.locality.num_shards > 1
    slo_s = config.p99_slo_s
    fail_fast = sim._fail_fast
    log = sim._event_log.append
    record_latency = sim._latencies.append
    heappush = heapq.heappush
    heappop = heapq.heappop

    # Hooks, and the guards each is tested under, set once per run.
    defense = sim.defense
    client = sim.client
    brownout = sim.brownout
    autoscaler = sim.autoscaler
    throttle = sim.throttle
    tracer = sim._tracer
    obs = sim._obs
    observed = sim._obs_enabled
    # The breakers a route, dispatch or serve must consult; every other
    # replica's breaker admits everything and ignores both.
    watched = {} if defense is None else defense.watched
    deadline = None if defense is None else defense.deadline_s
    retry_deadline = sim._retry_deadline_s
    # A client re-sends, so a copy can outlive its request's outcome.
    copies = client is not None
    # Replicas can fail, partition and return, stranding work.
    disrupted = bool(sim._fault_schedule or sim.injections)
    # One guard per stage.  Before routing: retry bookkeeping, offered
    # demand, deadlines, brownout.
    gated = (
        disrupted or copies or defense is not None
        or brownout is not None or autoscaler is not None
    )
    # After routing: breaker probes and metrics.
    noted = defense is not None or observed
    # At a departure: stale and held-back departures, breakers.
    tended = disrupted or defense is not None
    # At a serve: brownout rungs and metrics.
    counted = brownout is not None or observed
    # At a service start: shaping, the departure token, the
    # autoscaler's busy window and the trace.
    fitted = (
        disrupted or throttle is not None or brownout is not None
        or autoscaler is not None or tracer is not None
    )
    draws = {_SETTLE}  # the steps that draw from the generator
    if defense is not None:
        draws.update((_RETRY, _CLIENT))

    heap: List[tuple] = []
    seq = n - 1  # arrivals hold sequence numbers 0..n-1
    for time_s, replica_id in sim._fault_schedule:
        seq += 1
        heap.append((time_s, seq, _FAULT, replica_id))
    for injection in sim.injections:
        seq += 1
        heap.append((injection.time_s, seq, _INJECT, injection))
    if client is not None:
        for index, arrival_s in enumerate(arrivals):
            seq += 1
            heap.append((arrival_s + client.timeout_s, seq, _CLIENT, index))
    if autoscaler is not None:
        tick = autoscaler.config.tick_interval_s
        time_s = tick
        while time_s < sim._horizon:
            seq += 1
            heap.append((time_s, seq, _SCALE, None))
            time_s += tick
    heapq.heapify(heap)
    work: List[tuple] = []

    choose = sim.policy.choose
    indexed = name in ("jsq", "locality")
    listed = name != "jsq"
    by_shard = name == "locality"
    # ``jsq`` routes below the cap; ``locality`` also below its spill.
    local_limit = cap
    if by_shard:
        local_limit = min(cap, sim.policy.spill_outstanding)
    # Depth never exceeds the cap, nor the copies in flight: one per
    # request unless a client re-sends.
    targets = _Targets(
        replicas, sim.locality.num_shards if by_shard else 1,
        (cap if copies else min(cap, n)) + 1, cap, by_shard, indexed,
    )
    sync = targets.sync
    sync(*replicas)
    live = targets.live
    masks = targets.masks
    min_depth = targets.min_depth
    bits = targets.bits
    group_of = targets.group_of

    block = None
    used = block_len = 0
    saved = None
    block_size = _FIRST_BLOCK
    blocked = sigma != 0 and name != "po2"

    total = saturated = served = lost = cross_served = slo_over = 0
    busy = 0.0
    now = 0.0
    next_arrival = 0

    while True:
        if work:
            kind, entity = work.pop()
        elif fail_fast and (lost or slo_over > slo_budget):
            break
        elif next_arrival < n and (not heap or times[next_arrival] <= heap[0][0]):
            kind = _ARRIVAL
            index = order[next_arrival]
            now = times[next_arrival]
            next_arrival += 1
        elif heap:
            now, token, kind, entity = heappop(heap)
        else:
            break

        if not kind:  # _DEPART
            replica = entity
            if tended:
                if disrupted and (
                    replica.service_token != token or replica.partitioned
                ):
                    if replica.service_token == token:
                        # The response cannot cross the partition; it
                        # is delivered at the heal.
                        replica.deferred_depart = True
                    continue
                if watched:
                    defense.on_replica_success(replica.replica_id, now)
            index = replica.in_service
            if copies and resolved[index]:
                # A duplicate of an already-resolved request: the
                # capacity is spent, but nothing new is answered.
                sim._duplicate_service += 1
                if observed:
                    obs.counter("cluster.duplicate_service").inc()
                sim._emit(now, "duplicate", index)
            else:
                resolved[index] = 1
                # Latency spans original arrival (not retry time) to
                # completion.
                latency = now - arrivals[index]
                record_latency(latency)
                if latency > slo_s:
                    slo_over += 1
                served += 1
                log((now, "serve", index))
                if replica.in_service_cross:
                    cross_served += 1
                if counted:
                    if brownout is not None:
                        rung = replica.in_service_rung
                        sim._brownout_counts[rung] = (
                            sim._brownout_counts.get(rung, 0) + 1
                        )
                    if observed:
                        sim._count("serve")
                        if replica.in_service_cross:
                            obs.counter("cluster.cross_host_served").inc()
                        obs.histogram("cluster.request_latency_s").observe(
                            latency
                        )
            # With deadline propagation armed, queued entries past
            # their deadline are dropped before the next service, so a
            # replica never serves an answer nobody waits for; without
            # it every entry is served, duplicates included, which is
            # what makes an undefended retry storm metastable.
            queue = replica.queue
            depth = replica.outstanding
            left = depth - 1
            if deadline is not None:
                while queue and now > arrivals[queue[0][0]] + deadline:
                    index = queue.popleft()[0]
                    left -= 1
                    if resolved[index]:
                        if observed:
                            obs.counter("cluster.stale_discarded").inc()
                    else:
                        lost += sim._time_out(now, index)
            if depth == cap:
                saturated -= 1
            replica.outstanding = left
            if indexed:
                position = replica.replica_id
                group = group_of[position]
                levels = masks[group]
                levels[depth] ^= bits[position]
                levels[left] |= bits[position]
                if left < min_depth[group]:
                    min_depth[group] = left
            total -= depth - left
            if not queue:
                replica.in_service = None
                if autoscaler is not None and replica.state == "draining":
                    sim._retire_replica(now, replica)
                continue
            index, cross = queue.popleft()

        elif kind <= _FAULT_RETRY:
            # Route one copy of request ``index`` through the front door.
            if gated:
                if kind != _ARRIVAL:
                    index = entity
                    if copies and resolved[index]:
                        continue
                    if kind == _CLIENT_RETRY:
                        sim._client_retries += 1
                        if observed:
                            obs.counter("cluster.client_retries").inc()
                        sim._emit(now, "client_retry", index)
                if autoscaler is not None:
                    # Offered demand: every routing attempt, shed or not.
                    sim._window_offered += 1
                arrival_s = arrivals[index]
                # Deadline propagation, then the always-on retry cutoff
                # for fault-stranded work.
                if (defense is not None
                        and defense.past_deadline(now, arrival_s)) or (
                            kind == _FAULT_RETRY
                            and retry_deadline is not None
                            and now > arrival_s + retry_deadline):
                    if not resolved[index]:
                        lost += sim._time_out(now, index)
                    continue
                if brownout is not None:
                    sim._brownout_observe(now, total)
                    if not brownout.admit(requests[index].priority):
                        if observed:
                            obs.counter("cluster.brownout_shed").inc()
                        sim._emit(now, "brownout_shed", index)
                        if not resolved[index]:
                            lost += sim._drop_copy(now, index)
                        continue
            shard = shards[index]
            chosen = None
            if max_total is None or total < max_total or watched:
                if indexed and not watched:
                    group = shard if by_shard else 0
                    depth = min_depth[group]
                    if depth < local_limit:
                        mask = masks[group][depth]
                        chosen = replicas[(mask & -mask).bit_length() - 1]
                if chosen is None and (listed or watched):
                    if saturated:
                        candidates = [r for r in live if r.outstanding < cap]
                    else:
                        candidates = live
                    if watched:
                        candidates = [
                            r for r in candidates
                            if r.replica_id not in watched
                            or defense.replica_allowed(r.replica_id, now)
                        ]
                        if max_total is not None and total >= max_total:
                            candidates = None
                    if candidates:
                        if by_shard and used < block_len:
                            # A spill draws its po2 pair.
                            _rewind(rng, saved, mu, sigma, used)
                            used = block_len = 0
                            block_size = _FIRST_BLOCK
                        chosen = choose(candidates, shard, rng)
            if chosen is None:
                lost += sim._drop_copy(now, index)
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
            if noted:
                if watched:
                    defense.on_dispatch(chosen.replica_id, now)
                if observed:
                    if kind == _ARRIVAL:
                        obs.counter("cluster.admitted").inc()
                    obs.histogram("cluster.routed_outstanding").observe(
                        float(depth + 1)
                    )
            cross = multi_shard and chosen.shard != shard
            if chosen.in_service is not None:
                chosen.queue.append((index, cross))
                continue
            replica = chosen

        else:
            if used < block_len and kind in draws:
                _rewind(rng, saved, mu, sigma, used)
                used = block_len = 0
                block_size = _FIRST_BLOCK
            if kind == _FAULT or kind == _DOWN:
                if kind == _FAULT:
                    # Fault times are drawn per potential id; ids that
                    # never existed or are already down are thinned.
                    if entity >= len(replicas):
                        continue
                    replica = replicas[entity]
                    if not replica.serving:
                        continue
                else:
                    replica = entity
                    replica.forced_down = True
                    if not replica.serving:
                        continue  # already down: stays down until "up"
                was_draining = sim._fail(now, replica, kind == _FAULT)
                sync(replica)
                # Strand the replica's work: re-dispatch each request
                # through the front door, in queue order.
                stranded = [index for index, _ in replica.queue]
                if replica.in_service is not None:
                    stranded.insert(0, replica.in_service)
                    replica.in_service = None
                replica.queue.clear()
                if replica.outstanding == cap:
                    saturated -= 1
                total -= replica.outstanding
                replica.outstanding = 0
                replica.service_token = -1
                replica.deferred_depart = False
                work.append((_SETTLE, (replica, was_draining, kind == _FAULT)))
                work.extend((_RETRY, index) for index in reversed(stranded))
            elif kind == _RETRY:
                index = entity
                if copies and resolved[index]:
                    continue  # a duplicate of resolved work: just gone
                if defense is not None:
                    if not defense.take_retry_token(now):
                        lost += sim._drop_copy(now, index)
                        continue
                    attempt = sim._attempts.get(index, 0)
                    sim._attempts[index] = attempt + 1
                sim._retried += 1
                if observed:
                    obs.counter("cluster.retries").inc()
                if defense is not None:
                    delay = defense.backoff_s(attempt, rng)
                    if delay > 0:
                        seq += 1
                        heappush(heap, (now + delay, seq, _FAULT_RETRY, index))
                        continue
                work.append((_FAULT_RETRY, index))
            elif kind == _SETTLE:
                replica, was_draining, natural = entity
                if natural:
                    reboot_s = sim._drain_policy.sample_reboot_s(rng)
                    if observed:
                        obs.histogram("cluster.reboot_s").observe(reboot_s)
                if was_draining:
                    # A draining replica that fails is simply retired.
                    sim._retire_replica(now, replica)
                elif natural:
                    seq += 1
                    heappush(heap, (now + reboot_s, seq, _RECOVER, replica))
            elif kind == _RECOVER:
                if entity.state == "down" and not entity.forced_down:
                    sim._revive(now, entity, "recover")
                    sync(entity)
            elif kind == _INJECT:
                targets = entity.targets or range(len(replicas))
                hit = [
                    replicas[target] for target in targets
                    if 0 <= target < len(replicas)
                    and replicas[target].state != "retired"
                ]
                if entity.kind == "down":
                    work.extend((_DOWN, replica) for replica in reversed(hit))
                    continue
                for replica in hit:
                    if entity.kind == "up":
                        replica.forced_down = False
                        if replica.state == "down":
                            sim._revive(now, replica, "inject_up")
                    elif entity.kind == "slow":
                        replica.slow_factor = entity.magnitude
                        sim._emit(now, "slow", replica.replica_id)
                    elif entity.kind == "slow_end":
                        replica.slow_factor = 1.0
                        sim._emit(now, "slow_end", replica.replica_id)
                    elif entity.kind == "partition":
                        replica.partitioned = True
                        sim._emit(now, "partition", replica.replica_id)
                    elif entity.kind == "heal":
                        replica.partitioned = False
                        sim._emit(now, "heal", replica.replica_id)
                        if replica.deferred_depart:
                            replica.deferred_depart = False
                            seq += 1
                            replica.service_token = seq
                            heappush(heap, (now, seq, _DEPART, replica))
                sync(*hit)
            elif kind == _CLIENT:
                # The client's response timer fired: retry or give up.
                index = entity
                if resolved[index]:
                    continue
                attempts = sim._attempts.get(index, 0)
                # Past the traffic horizon clients give up rather than
                # re-send into the drain, so a permanently dead tier
                # cannot keep the run alive.
                if now > sim._horizon or (
                    client.max_retries is not None
                    and attempts >= client.max_retries
                ) or (
                    defense is not None
                    and defense.past_deadline(now, arrivals[index])
                ):
                    lost += sim._time_out(now, index)
                    continue
                if defense is not None and not defense.take_retry_token(now):
                    # Over the retry budget: wait a full timeout.
                    seq += 1
                    heappush(heap, (now + client.timeout_s, seq, _CLIENT, index))
                    continue
                sim._attempts[index] = attempts + 1
                delay = 0.0 if defense is None else defense.backoff_s(attempts, rng)
                seq += 1
                heappush(heap, (now + delay, seq, _CLIENT_RETRY, index))
                seq += 1
                heappush(
                    heap,
                    (now + delay + client.timeout_s, seq, _CLIENT, index),
                )
            elif kind == _SCALE:
                sim._on_scale(now)
                sync(*replicas)
            continue

        # Start serving ``index`` on ``replica``.
        if sigma == 0:
            base = mean_s
        elif blocked:
            if used == block_len:
                saved = rng.bit_generator.state
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
        seq += 1
        if fitted:
            if throttle is not None:
                service_s *= throttle.multiplier(now)
            if replica.slow_factor != 1.0:
                service_s *= replica.slow_factor
            if brownout is not None:
                rung, multiplier = brownout.rung()
                if multiplier != 1.0:
                    service_s *= multiplier
                replica.in_service_rung = rung
            if disrupted:
                replica.service_token = seq
            if autoscaler is not None:
                sim._window_busy += service_s
            if tracer is not None:
                tracer.complete(
                    f"req-{requests[index].request_id}",
                    ts=now * 1e6, dur=service_s * 1e6,
                    tid=tracer.lane(f"replica-{replica.replica_id}"),
                    cat="service",
                    args={"cross_host": int(cross)},
                )
        replica.in_service = index
        replica.in_service_cross = cross
        busy += service_s
        heappush(heap, (now + service_s, seq, _DEPART, replica))

    if used < block_len:
        _rewind(rng, saved, mu, sigma, used)
    pending = []
    if served + sim._shed + sim._timed_out < n:
        unresolved = np.frombuffer(resolved, dtype=np.uint8) == 0
        pending = np.flatnonzero(unresolved).tolist()
    return pending, now, served, cross_served, busy
