"""Fleet-scale memory-error telemetry (paper section 5.1).

"From an initial sample of 1,700 servers, we found that 24% exhibited
ECC errors, typically on a single MTIA card per server."

The Monte-Carlo sampler below draws per-card error events over an
observation window and reproduces both statistics: the fraction of
servers affected and the typical one-card-per-server pattern.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

PAPER_SAMPLE_SERVERS = 1700
PAPER_AFFECTED_FRACTION = 0.24
CARDS_PER_SERVER = 24


@dataclasses.dataclass(frozen=True)
class FleetErrorStats:
    """Measured error telemetry over one observation window."""

    servers: int
    affected_servers: int
    total_errored_cards: int
    max_errored_cards_on_one_server: int

    @property
    def affected_fraction(self) -> float:
        """Fraction of servers with at least one errored card."""
        return self.affected_servers / self.servers if self.servers else 0.0

    @property
    def mean_errored_cards_per_affected_server(self) -> float:
        """Paper: 'typically on a single MTIA card per server'."""
        if not self.affected_servers:
            return 0.0
        return self.total_errored_cards / self.affected_servers


def card_error_probability_for_server_fraction(target_server_fraction: float) -> float:
    """The per-card error probability implying a target server fraction.

    P(server affected) = 1 - (1 - p)^cards, inverted for p.  The paper's
    24% of servers implies roughly a 1.1% per-card error rate over the
    observation window — low enough that affected servers usually have
    exactly one bad card, matching the reported pattern.
    """
    if not (0 < target_server_fraction < 1):
        raise ValueError("target fraction must be in (0, 1)")
    return 1.0 - (1.0 - target_server_fraction) ** (1.0 / CARDS_PER_SERVER)


def sample_fleet_errors(
    servers: int = PAPER_SAMPLE_SERVERS,
    card_error_probability: Optional[float] = None,
    seed: int = 0,
) -> FleetErrorStats:
    """Monte-Carlo one observation window over the fleet."""
    if card_error_probability is None:
        card_error_probability = card_error_probability_for_server_fraction(
            PAPER_AFFECTED_FRACTION
        )
    if not (0 <= card_error_probability <= 1):
        raise ValueError("probability must be in [0, 1]")
    rng = np.random.default_rng(seed)
    errored = rng.uniform(size=(servers, CARDS_PER_SERVER)) < card_error_probability
    per_server = errored.sum(axis=1)
    return FleetErrorStats(
        servers=servers,
        affected_servers=int(np.count_nonzero(per_server)),
        total_errored_cards=int(per_server.sum()),
        max_errored_cards_on_one_server=int(per_server.max(initial=0)),
    )
