"""The cluster tier's recovery vocabulary, at the values it runs.

Every mechanism below runs at one setting on every program path, so
each setting is a module constant, not a field:

* the front door's per-replica outstanding cap
  (:data:`MAX_OUTSTANDING_PER_REPLICA`), past which a request is shed;
* the client that re-sends a request it has not seen answered within
  :data:`CLIENT_TIMEOUT_S` — the load side of a retry storm;
* the log-normal reboot time of a failed replica
  (:func:`sample_reboot_s`: mostly ~10 minutes with a long tail of
  stuck hosts);
* capped exponential backoff with symmetric jitter
  (:func:`backoff_s`), the one backoff formula in the package;
* the overload defenses against metastable retry storms, held by the
  per-run :class:`DefenseRuntime`: deadline propagation, a tier-wide
  retry :class:`TokenBucket`, backoff, and per-replica
  :class:`CircuitBreaker` state machines.  The runtime is seedless;
  jitter comes from the caller's generator, preserving the
  one-seed-one-run discipline.

What stays switchable is on/off, and only where programs run both
settings: a run has a defense runtime or none, and retrying clients or
none.  The fluid resilience model's retry, hedge, shed and rollout
settings live next to their one reader,
:func:`repro.resilience.metrics.evaluate_interval`.

:func:`require_finite` and :func:`require_count` check inputs that
arrive from outside the program: a NaN passes every ``<``/``<=`` range
check (all its comparisons are False) and a float or bool count passes
``>= 1``.  This module imports nothing from :mod:`repro.cluster` or
:mod:`repro.chaos`, which both build on it.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import Dict

import numpy as np

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

# A replica stops being an admissible routing target once this many
# requests are outstanding on it.
MAX_OUTSTANDING_PER_REPLICA = 16
# A retrying client re-sends after this long without a response, with
# no retry cap (the storm case).
CLIENT_TIMEOUT_S = 0.25
# Reboot of a failed replica: log-normal with mean ~REBOOT_MTTR_S.
REBOOT_MTTR_S = 600.0
REBOOT_SIGMA = 0.35
_REBOOT_MU = np.log(REBOOT_MTTR_S) - 0.5 * REBOOT_SIGMA**2
# Backoff before retry ``k``: min(base * factor**k, cap), jittered by a
# uniform +/- fraction.
BACKOFF_BASE_S = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_CAP_S = 1.0
BACKOFF_JITTER = 0.5
# Per-request latency budget; it sits above the storm client's timeout
# so first sends are never dead on arrival.
DEADLINE_S = 0.3
# Tier-wide retry budget.
RETRY_TOKENS_PER_S = 40.0
RETRY_TOKEN_BURST = 20.0
# Circuit breaker: one failure opens it; after the cooldown it admits
# the probe quota of dispatches, and that many successes close it.
BREAKER_COOLDOWN_S = 2.0
BREAKER_PROBE_QUOTA = 2
BREAKER_CLOSE_AFTER_SUCCESSES = 2


def require_finite(name: str, value: float) -> None:
    """Reject NaN, infinities and bools."""
    if isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def require_count(name: str, value: int) -> None:
    """Reject anything but an integer (numpy integers pass, bools do not)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def backoff_s(retry: int, rng: np.random.Generator) -> float:
    """Sleep before retry ``retry`` (0 = first retry).

    ``min(base * factor^retry, cap)``, jittered by one uniform draw from
    ``rng``; a seeded generator keeps runs bit-reproducible.
    """
    delay = min(BACKOFF_BASE_S * BACKOFF_FACTOR ** retry, BACKOFF_CAP_S)
    delay *= 1.0 + BACKOFF_JITTER * float(rng.uniform(-1.0, 1.0))
    return delay


def sample_reboot_s(rng: np.random.Generator) -> float:
    """One reboot duration: log-normal with mean ~:data:`REBOOT_MTTR_S`."""
    return float(rng.lognormal(_REBOOT_MU, REBOOT_SIGMA))


class TokenBucket:
    """A deterministic time-based token bucket.

    Refill is computed from elapsed simulated time at each ``take``, so
    the bucket is a pure function of the call sequence — no wall clocks,
    no background threads.
    """

    def __init__(self, rate_per_s: float, burst: float) -> None:
        self.rate_per_s = rate_per_s
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last_s = 0.0

    def take(self, now_s: float) -> bool:
        """Consume one token at ``now_s`` if available."""
        if now_s < self._last_s:
            raise ValueError("token bucket time must not run backwards")
        self._tokens = min(
            self.burst, self._tokens + (now_s - self._last_s) * self.rate_per_s
        )
        self._last_s = now_s
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class CircuitBreaker:
    """The closed → open → half-open state machine for one replica.

    * **closed** — traffic flows; one failure trips it open.
    * **open** — no traffic at all until :data:`BREAKER_COOLDOWN_S` has
      elapsed since the trip, at which point the next ``allow``
      transitions to half-open.
    * **half-open** — at most :data:`BREAKER_PROBE_QUOTA` dispatches are
      admitted (``on_dispatch`` accounts them);
      :data:`BREAKER_CLOSE_AFTER_SUCCESSES` successful completions close
      the breaker, any failure re-opens it and restarts the cooldown.
    """

    def __init__(self) -> None:
        self.state = BREAKER_CLOSED
        self._opened_at_s = 0.0
        self._probes_dispatched = 0
        self._probe_successes = 0

    def _enter_half_open(self) -> None:
        self.state = BREAKER_HALF_OPEN
        self._probes_dispatched = 0
        self._probe_successes = 0

    def allow(self, now_s: float) -> bool:
        """Whether a dispatch to this replica is admissible at ``now_s``."""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if now_s - self._opened_at_s >= BREAKER_COOLDOWN_S:
                self._enter_half_open()
            else:
                return False
        # Half-open: admit exactly the probe quota.
        return self._probes_dispatched < BREAKER_PROBE_QUOTA

    def on_dispatch(self) -> None:
        """Account one admitted dispatch (probe bookkeeping)."""
        if self.state == BREAKER_HALF_OPEN:
            self._probes_dispatched += 1

    def record_success(self) -> None:
        """One request completed successfully on this replica."""
        if self.state == BREAKER_HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= BREAKER_CLOSE_AFTER_SUCCESSES:
                self.state = BREAKER_CLOSED

    def record_failure(self, now_s: float) -> None:
        """The replica failed (fault, injected outage, lost probe)."""
        if self.state != BREAKER_OPEN:
            self.state = BREAKER_OPEN
            self._opened_at_s = now_s


class DefenseRuntime:
    """The per-run mutable state of the armed overload defenses.

    One instance per simulated run — breakers and token buckets are
    stateful, so sharing a runtime across runs breaks determinism.
    """

    def __init__(self) -> None:
        self._bucket = TokenBucket(RETRY_TOKENS_PER_S, RETRY_TOKEN_BURST)
        # A replica's breaker is made at its first failure.  Until then,
        # and whenever it is closed, it admits everything and a success
        # or dispatch changes nothing, so ``watched`` holds only the
        # breakers that are not closed; the router consults those and
        # no others.
        self._breakers: Dict[int, CircuitBreaker] = {}
        self.watched: Dict[int, CircuitBreaker] = {}
        # What the defenses did over the run.
        self.retries_denied = 0
        self.deadline_drops = 0
        self.breaker_rejections = 0

    def past_deadline(self, now_s: float, arrival_s: float) -> bool:
        """Deadline propagation: is this request already dead?"""
        if now_s > arrival_s + DEADLINE_S:
            self.deadline_drops += 1
            return True
        return False

    def take_retry_token(self, now_s: float) -> bool:
        """Whether the tier-wide retry budget admits another retry."""
        if self._bucket.take(now_s):
            return True
        self.retries_denied += 1
        return False

    def replica_allowed(self, replica_id: int, now_s: float) -> bool:
        """Circuit-breaker gate for routing candidates."""
        breaker = self.watched.get(replica_id)
        if breaker is None or breaker.allow(now_s):
            return True
        self.breaker_rejections += 1
        return False

    def on_dispatch(self, replica_id: int) -> None:
        breaker = self.watched.get(replica_id)
        if breaker is not None:
            breaker.on_dispatch()

    def on_replica_success(self, replica_id: int) -> None:
        breaker = self.watched.get(replica_id)
        if breaker is not None:
            breaker.record_success()
            if breaker.state == BREAKER_CLOSED:
                del self.watched[replica_id]

    def on_replica_failure(self, replica_id: int, now_s: float) -> None:
        breaker = self._breakers.get(replica_id)
        if breaker is None:
            breaker = CircuitBreaker()
            self._breakers[replica_id] = breaker
        breaker.record_failure(now_s)
        self.watched[replica_id] = breaker
