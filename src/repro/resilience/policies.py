"""The recovery vocabulary: retry, backoff, drain, shed, breaker, admission.

One module names every mechanism the serving tiers use to fight back,
so the fluid resilience model (:mod:`repro.resilience`), the cluster
simulator (:mod:`repro.cluster`) and the chaos campaigns
(:mod:`repro.chaos`) speak one language.  Every optional mechanism is
off when its field is ``None``; there is no second way to switch one off.

* :class:`Backoff` — capped exponential backoff with symmetric jitter,
  the one backoff formula in the package.
* :class:`RetryPolicy` — per-request timeout and attempt cap (fluid
  model); :class:`ClientRetryConfig` — a client re-sending after a
  timeout, the load side of a retry storm (cluster simulator).
* :class:`HedgePolicy` — after a latency budget expires, re-dispatch the
  request to a second replica and take the first response.
* :class:`DrainPolicy` — periodic health checks; after N consecutive
  failures the device is drained and rebooted with a log-normal MTTR
  (reboots are mostly ~10 minutes with a long tail of stuck hosts).
* :class:`LoadShedPolicy` — past a utilization ceiling the tier sheds
  excess load rather than queue into SLO collapse;
  :class:`AdmissionConfig` — the cluster front door's per-replica and
  tier-wide outstanding caps, past which a request is shed.
* :class:`RolloutPolicy` — when the pool's ``slo_at_risk`` signal trips,
  an emergency firmware rollout
  (:func:`repro.reliability.firmware.emergency_rollout`) patches the
  fleet wave-by-wave.
* :class:`DefenseConfig` and its per-run :class:`DefenseRuntime` — the
  overload defenses against metastable retry storms: deadline
  propagation, a tier-wide retry :class:`TokenBucket`, backoff, and
  per-replica :class:`CircuitBreaker` state machines.  The runtimes are
  seedless; backoff jitter comes from the caller's generator, preserving
  the one-seed-one-run discipline.

Every field is checked once, at construction: a NaN passes every
``<``/``<=`` range check (all its comparisons are False) and a float or
bool count passes ``>= 1``, so each class checks type and finiteness
(:func:`require_finite`, :func:`require_count`) before its ranges.  This
module imports nothing from :mod:`repro.cluster` or :mod:`repro.chaos`,
which both build on it.
"""

from __future__ import annotations

import dataclasses
import math
from numbers import Integral
from typing import Dict, Optional

import numpy as np

from repro.reliability.firmware import RolloutPlan, emergency_rollout

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


def require_finite(name: str, value: float) -> None:
    """Reject NaN, infinities and bools."""
    if isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def require_count(name: str, value: int) -> None:
    """Reject anything but an integer (numpy integers pass, bools do not)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclasses.dataclass(frozen=True)
class Backoff:
    """Capped exponential backoff with symmetric jitter."""

    base_s: float = 0.05
    factor: float = 2.0
    cap_s: float = 1.0
    jitter: float = 0.5  # uniform +/- fraction of the delay

    def __post_init__(self) -> None:
        require_finite("backoff base", self.base_s)
        require_finite("backoff factor", self.factor)
        require_finite("backoff cap", self.cap_s)
        require_finite("backoff jitter", self.jitter)
        if self.base_s <= 0 or self.cap_s <= 0:
            raise ValueError("backoff base and cap must be positive")
        if self.factor < 1:
            raise ValueError("backoff factor must be at least 1")
        if not (0 <= self.jitter < 1):
            raise ValueError("backoff jitter must be in [0, 1)")

    def delay_s(self, retry: int, rng: Optional[np.random.Generator] = None) -> float:
        """Sleep before retry ``retry`` (0 = first retry).

        ``min(base * factor^retry, cap)``, jittered by one uniform draw
        from ``rng`` when one is given and ``jitter > 0``; a seeded
        generator keeps runs bit-reproducible.
        """
        delay = min(self.base_s * self.factor ** retry, self.cap_s)
        if rng is not None and self.jitter > 0:
            delay *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return delay


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Per-request timeout, attempt cap and backoff."""

    timeout_s: float = 1.0
    max_attempts: int = 3
    backoff: Backoff = Backoff(jitter=0.25)

    def __post_init__(self) -> None:
        require_finite("retry timeout", self.timeout_s)
        require_count("max attempts", self.max_attempts)
        if self.timeout_s <= 0 or self.max_attempts < 1:
            raise ValueError("need a positive timeout and at least one attempt")


@dataclasses.dataclass(frozen=True)
class ClientRetryConfig:
    """Client-side retry behaviour — the load side of a retry storm.

    A client that has not seen a response ``timeout_s`` after sending
    re-sends the request (a duplicate the servers cannot distinguish),
    up to ``max_retries`` times (``None`` = unbounded, the storm case),
    after whatever backoff an armed defense imposes.
    """

    timeout_s: float = 0.25
    max_retries: Optional[int] = None

    def __post_init__(self) -> None:
        require_finite("client timeout", self.timeout_s)
        if self.max_retries is not None:
            require_count("max retries", self.max_retries)
        if self.timeout_s <= 0:
            raise ValueError("client timeout must be positive")
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError("max retries must be non-negative")


@dataclasses.dataclass(frozen=True)
class HedgePolicy:
    """Speculative re-dispatch after a latency budget."""

    hedge_after_s: float = 0.05
    # Fraction of *healthy* requests that still trip the hedge budget
    # (tail latency), adding background attempt amplification.
    false_hedge_fraction: float = 0.01

    def __post_init__(self) -> None:
        require_finite("hedge budget", self.hedge_after_s)
        require_finite("false-hedge fraction", self.false_hedge_fraction)
        if self.hedge_after_s <= 0:
            raise ValueError("hedge budget must be positive")
        if not (0 <= self.false_hedge_fraction <= 1):
            raise ValueError("false-hedge fraction must be in [0, 1]")


@dataclasses.dataclass(frozen=True)
class DrainPolicy:
    """Health-check-driven drain/quarantine with MTTR-distributed reboot."""

    health_check_interval_s: float = 60.0
    failures_to_drain: int = 3
    drain_grace_s: float = 30.0
    reboot_mttr_s: float = 600.0
    reboot_sigma: float = 0.35  # log-normal shape: mostly ~MTTR, long tail

    def __post_init__(self) -> None:
        require_finite("health-check interval", self.health_check_interval_s)
        require_count("failures to drain", self.failures_to_drain)
        require_finite("drain grace", self.drain_grace_s)
        require_finite("reboot MTTR", self.reboot_mttr_s)
        require_finite("reboot sigma", self.reboot_sigma)
        if self.health_check_interval_s <= 0:
            raise ValueError("health-check interval must be positive")
        if self.failures_to_drain < 1:
            raise ValueError("need at least one failure to drain")
        if self.drain_grace_s < 0 or self.reboot_mttr_s <= 0:
            raise ValueError("drain grace must be >= 0 and MTTR > 0")
        if self.reboot_sigma < 0:
            raise ValueError("reboot sigma must be non-negative")

    def sample_reboot_s(self, rng: np.random.Generator) -> float:
        """One reboot duration: log-normal with mean ~``reboot_mttr_s``."""
        if self.reboot_sigma == 0:
            return self.reboot_mttr_s
        mu = np.log(self.reboot_mttr_s) - 0.5 * self.reboot_sigma**2
        return float(rng.lognormal(mu, self.reboot_sigma))


@dataclasses.dataclass(frozen=True)
class LoadShedPolicy:
    """Shed offered load past a utilization ceiling."""

    max_utilization: float = 0.95

    def __post_init__(self) -> None:
        require_finite("utilization ceiling", self.max_utilization)
        if not (0 < self.max_utilization <= 1):
            raise ValueError("utilization ceiling must be in (0, 1]")


@dataclasses.dataclass(frozen=True)
class AdmissionConfig:
    """The cluster front door's overload limits.

    A replica stops being an admissible routing target once its
    outstanding count reaches the per-replica cap, and a request that
    finds no admissible replica at all is shed — counted, never silently
    dropped.  The optional total cap models a global front-door token
    limit.
    """

    max_outstanding_per_replica: int = 16
    max_total_outstanding: Optional[int] = None

    def __post_init__(self) -> None:
        require_count("per-replica outstanding cap", self.max_outstanding_per_replica)
        if self.max_total_outstanding is not None:
            require_count("total outstanding cap", self.max_total_outstanding)
        if self.max_outstanding_per_replica < 1:
            raise ValueError("per-replica outstanding cap must be at least 1")
        if self.max_total_outstanding is not None and self.max_total_outstanding < 1:
            raise ValueError("total outstanding cap must be at least 1")


@dataclasses.dataclass(frozen=True)
class RolloutPolicy:
    """Fire an emergency firmware rollout when the SLO is at risk."""

    # Wall time between the slo_at_risk trip and the rollout's first
    # wave (paging, triage, build pinning).
    detection_delay_s: float = 1800.0

    def __post_init__(self) -> None:
        require_finite("detection delay", self.detection_delay_s)
        if self.detection_delay_s < 0:
            raise ValueError("detection delay must be non-negative")

    def resolved_plan(self) -> RolloutPlan:
        """The plan to execute: the paper's ~3 h emergency rollout."""
        return emergency_rollout()


@dataclasses.dataclass(frozen=True)
class ResiliencePolicies:
    """The fluid model's policy bundle; ``None`` switches one off."""

    retry: Optional[RetryPolicy] = None
    hedge: Optional[HedgePolicy] = None
    drain: Optional[DrainPolicy] = None
    shed: Optional[LoadShedPolicy] = LoadShedPolicy()
    rollout: Optional[RolloutPolicy] = None

    @staticmethod
    def none() -> "ResiliencePolicies":
        """No mitigation at all — the paper's counterfactual baseline."""
        return ResiliencePolicies(shed=None)

    @staticmethod
    def production() -> "ResiliencePolicies":
        """The full stack: retries, hedging, drain, shed, and the
        emergency-rollout trigger."""
        return ResiliencePolicies(
            retry=RetryPolicy(),
            hedge=HedgePolicy(),
            drain=DrainPolicy(),
            shed=LoadShedPolicy(),
            rollout=RolloutPolicy(),
        )


class TokenBucket:
    """A deterministic time-based token bucket.

    Refill is computed from elapsed simulated time at each ``take``, so
    the bucket is a pure function of the call sequence — no wall clocks,
    no background threads.  Its rate and burst are a
    :class:`DefenseConfig`'s, checked there.
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


@dataclasses.dataclass(frozen=True)
class BreakerConfig:
    """Per-replica circuit-breaker tuning."""

    failure_threshold: int = 1  # consecutive failures that open the breaker
    cooldown_s: float = 2.0  # open -> half-open delay
    probe_quota: int = 2  # dispatches admitted while half-open
    close_after_successes: int = 2  # half-open successes that close it

    def __post_init__(self) -> None:
        require_count("failure threshold", self.failure_threshold)
        require_finite("breaker cooldown", self.cooldown_s)
        require_count("probe quota", self.probe_quota)
        require_count("close-after-successes", self.close_after_successes)
        if self.failure_threshold < 1:
            raise ValueError("failure threshold must be at least 1")
        if self.cooldown_s <= 0:
            raise ValueError("cooldown must be positive")
        if self.probe_quota < 1:
            raise ValueError("probe quota must be at least 1")
        if self.close_after_successes < 1:
            raise ValueError("close-after-successes must be at least 1")


class CircuitBreaker:
    """The closed → open → half-open state machine for one replica.

    * **closed** — traffic flows; ``failure_threshold`` consecutive
      failures trip it open.
    * **open** — no traffic at all until ``cooldown_s`` has elapsed
      since the trip, at which point the next ``allow`` transitions to
      half-open.
    * **half-open** — at most ``probe_quota`` dispatches are admitted
      (``on_dispatch`` accounts them); ``close_after_successes``
      successful completions close the breaker, any failure re-opens it
      and restarts the cooldown.
    """

    def __init__(self, config: BreakerConfig) -> None:
        self.config = config
        self.state = BREAKER_CLOSED
        self._consecutive_failures = 0
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
            if now_s - self._opened_at_s >= self.config.cooldown_s:
                self._enter_half_open()
            else:
                return False
        # Half-open: admit exactly the probe quota.
        return self._probes_dispatched < self.config.probe_quota

    def on_dispatch(self, now_s: float) -> None:
        """Account one admitted dispatch (probe bookkeeping)."""
        if self.state == BREAKER_HALF_OPEN:
            self._probes_dispatched += 1

    def record_success(self, now_s: float) -> None:
        """One request completed successfully on this replica."""
        if self.state == BREAKER_HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.config.close_after_successes:
                self.state = BREAKER_CLOSED
                self._consecutive_failures = 0
        elif self.state == BREAKER_CLOSED:
            self._consecutive_failures = 0

    def record_failure(self, now_s: float) -> None:
        """The replica failed (fault, injected outage, lost probe)."""
        if self.state == BREAKER_HALF_OPEN:
            self.state = BREAKER_OPEN
            self._opened_at_s = now_s
            return
        self._consecutive_failures += 1
        if (self.state == BREAKER_CLOSED
                and self._consecutive_failures >= self.config.failure_threshold):
            self.state = BREAKER_OPEN
            self._opened_at_s = now_s


@dataclasses.dataclass(frozen=True)
class DefenseConfig:
    """Which overload defenses are armed, and how.  Everything defaults
    to off, so a runtime built from ``DefenseConfig()`` changes nothing."""

    # Per-request latency budget; None disables deadline propagation.
    deadline_s: Optional[float] = None
    # Tier-wide retry budget; None disables the token bucket.
    retry_tokens_per_s: Optional[float] = None
    retry_token_burst: float = 10.0
    # Backoff before each retry; None retries immediately.
    backoff: Optional[Backoff] = None
    # Per-replica circuit breakers; None disables.
    breaker: Optional[BreakerConfig] = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None:
            require_finite("deadline", self.deadline_s)
            if self.deadline_s <= 0:
                raise ValueError("deadline must be positive")
        if self.retry_tokens_per_s is not None:
            require_finite("retry token rate", self.retry_tokens_per_s)
            if self.retry_tokens_per_s <= 0:
                raise ValueError("retry token rate must be positive")
        require_finite("retry token burst", self.retry_token_burst)
        if self.retry_token_burst < 1:
            raise ValueError("retry token burst must be at least 1 token")

    @classmethod
    def full(cls, deadline_s: float = 0.3) -> "DefenseConfig":
        """Every defense armed with production-shaped defaults."""
        return cls(
            deadline_s=deadline_s,
            retry_tokens_per_s=40.0,
            retry_token_burst=20.0,
            backoff=Backoff(),
            breaker=BreakerConfig(),
        )


class DefenseRuntime:
    """The per-run mutable state behind a :class:`DefenseConfig`.

    One instance per simulated run — breakers and token buckets are
    stateful, so sharing a runtime across runs breaks determinism.
    """

    def __init__(self, config: DefenseConfig) -> None:
        self.config = config
        self._bucket = (
            TokenBucket(config.retry_tokens_per_s, config.retry_token_burst)
            if config.retry_tokens_per_s is not None else None
        )
        # A replica's breaker is made at its first failure.  Until then,
        # and whenever it is closed with no failure counted, it admits
        # everything and a success or dispatch changes nothing, so
        # ``watched`` holds only the breakers that are not in that
        # state; the router consults those and no others.
        self._breakers: Dict[int, CircuitBreaker] = {}
        self.watched: Dict[int, CircuitBreaker] = {}
        # Tallies read by the campaign report.
        self.retries_denied = 0
        self.deadline_drops = 0
        self.breaker_rejections = 0

    @property
    def deadline_s(self) -> Optional[float]:
        return self.config.deadline_s

    def past_deadline(self, now_s: float, arrival_s: float) -> bool:
        """Deadline propagation: is this request already dead?"""
        if self.config.deadline_s is None:
            return False
        if now_s > arrival_s + self.config.deadline_s:
            self.deadline_drops += 1
            return True
        return False

    def take_retry_token(self, now_s: float) -> bool:
        """Whether the tier-wide retry budget admits another retry."""
        if self._bucket is None:
            return True
        if self._bucket.take(now_s):
            return True
        self.retries_denied += 1
        return False

    def backoff_s(self, retry: int, rng: np.random.Generator) -> float:
        """The armed :class:`Backoff`'s delay before ``retry`` (0-based),
        or 0 with backoff off."""
        backoff = self.config.backoff
        return 0.0 if backoff is None else backoff.delay_s(retry, rng)

    def breaker(self, replica_id: int) -> Optional[CircuitBreaker]:
        """The replica's breaker, or None before its first failure."""
        return self._breakers.get(replica_id)

    def replica_allowed(self, replica_id: int, now_s: float) -> bool:
        """Circuit-breaker gate for routing candidates."""
        breaker = self.watched.get(replica_id)
        if breaker is None or breaker.allow(now_s):
            return True
        self.breaker_rejections += 1
        return False

    def on_dispatch(self, replica_id: int, now_s: float) -> None:
        breaker = self.watched.get(replica_id)
        if breaker is not None:
            breaker.on_dispatch(now_s)

    def on_replica_success(self, replica_id: int, now_s: float) -> None:
        breaker = self.watched.get(replica_id)
        if breaker is not None:
            breaker.record_success(now_s)
            if breaker.state == BREAKER_CLOSED:
                del self.watched[replica_id]

    def on_replica_failure(self, replica_id: int, now_s: float) -> None:
        if self.config.breaker is None:
            return
        breaker = self._breakers.get(replica_id)
        if breaker is None:
            breaker = CircuitBreaker(self.config.breaker)
            self._breakers[replica_id] = breaker
        breaker.record_failure(now_s)
        self.watched[replica_id] = breaker
