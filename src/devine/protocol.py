"""Leader ring election over candidate local embeddings.

The primary node draws a ring of candidate leaders, and every leader computes
its own local embedding.  In the protocol (Chang & Roberts' extrema-finding
ring) a proposal travels the ring: each leader forwards one that beats its own
and overwrites one that does not, and a leader that receives its own proposal
back has won and circulates the final solution.  Proposals are ordered by
(metric, -node id), so equal metrics resolve toward the lowest node id.  The
ring here never loses, delays or reorders a message, so every delivery is a
function of the running best proposal in ring order: the election is one
pass over the ring, and its trace builds the messages from that pass when read.
Each leader embeds with the best key of the leaders before it as a floor and
stops once it cannot beat it (see `local_embed.embed`): such a leader's
proposal would be overwritten at the next hop and never reach the trace, so
the winner, its outcome and every delivered message stay the same.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

# allocate and verify_solution stay importable for benchmarks/layers.py
from .embedding import allocate, verify_solution
from .local_embed import INFEASIBLE, LocalEmbedOutcome, LocalEmbedParams, _key, embed
from .model import PhysicalNetwork, Vnr


class ProtocolError(RuntimeError):
    """Raised when an election cannot run."""


@dataclass(frozen=True)
class ElectionParams(LocalEmbedParams):
    """Every leader's local embedding parameters, plus the ring size."""

    leaders: int = 5

    def validate(self) -> None:
        if self.leaders < 1:
            raise ValueError("leaders must be at least 1")
        super().validate()


@dataclass(frozen=True)
class LeaderRing:
    """Candidate leaders in circulation order; the primary sits first."""

    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("a ring needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise ValueError("ring members must be distinct")

    @property
    def primary(self) -> int:
        return self.members[0]


@dataclass
class TraceEvent:
    """One delivered message in an election."""

    seq: int
    request_id: int
    kind: str  # EMBEDDING | EMBEDDED
    sender: int
    receiver: int
    subject: int  # originator for EMBEDDING, winner for EMBEDDED
    metric: float | None  # None when infeasible


class ElectionTrace:
    """Every message one election delivers, built from the ring when read.

    `carried[i]` is the ring position of the best of members[:i + 1] and
    `metrics[i]` is members[i]'s metric, None when infeasible.  Message i runs
    from members[i % L] to members[(i + 1) % L] carrying the best proposal of
    the leaders it has passed: the winner's proposal leaves it on hop
    `carried[-1]` and is home L hops later, then the winner's announcement
    circles the ring once.  A ring of one delivers nothing.
    """

    def __init__(self, request_id: int, members: tuple[int, ...], carried: list[int],
                 metrics: list[float | None]):
        self.request_id = request_id
        self.members, self.carried, self.metrics = members, carried, metrics
        self.embedded_count = len(members) if len(members) > 1 else 0
        self.embedding_count = carried[-1] + self.embedded_count  # a ring of one: 0 + 0

    @property
    def events(self) -> list[TraceEvent]:
        members, size, events = self.members, len(self.members), []
        for seq in range(self.embedding_count + self.embedded_count):
            src = self.carried[min(seq, size - 1)]  # from hop L - 1 on, the winner
            kind = "EMBEDDING" if seq < self.embedding_count else "EMBEDDED"
            events.append(TraceEvent(seq, self.request_id, kind, members[seq % size],
                                     members[(seq + 1) % size], members[src], self.metrics[src]))
        return events

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(asdict(e), sort_keys=True, allow_nan=False) for e in self.events
        )


def select_leaders(
    net: PhysicalNetwork, primary: int, leaders: int, rng: np.random.Generator
) -> LeaderRing:
    """Primary plus leaders-1 distinct nodes drawn uniformly, in draw order."""
    if not 0 <= primary < net.num_nodes:
        raise ValueError(f"unknown primary node {primary}")
    if not 1 <= leaders <= net.num_nodes:
        raise ValueError(f"leaders must lie in [1, {net.num_nodes}], got {leaders}")
    # index i of the n-1 nodes other than the primary is node i + (i >= primary)
    picked = rng.choice(net.num_nodes - 1, size=leaders - 1, replace=False).tolist()
    return LeaderRing((primary, *(i + (i >= primary) for i in picked)))


@dataclass
class ElectionResult:
    """Outcome of one election: the winner's local embedding and the message trace."""

    outcome: LocalEmbedOutcome
    trace: ElectionTrace
    winner: int


def run_election(
    net: PhysicalNetwork,
    vnr: Vnr,
    primary: int,
    params: ElectionParams | None = None,
    *,
    rng: np.random.Generator | None = None,
    ring: LeaderRing | None = None,
    embedder: Callable[[int], LocalEmbedOutcome] | None = None,
) -> ElectionResult:
    """Run one full election for a request and return the winner's embedding.

    Every leader computes its local embedding once, in ring order, against
    the shared network state as it stands at election start, and the default
    embedder passes it the best key of the leaders before it as a floor.  The
    election never mutates the network: the caller allocates the winning solution.
    """
    params = params or ElectionParams()
    params.validate()
    if ring is None:
        if rng is None:
            raise ValueError("pass an rng (or an explicit ring) to select leaders")
        ring = select_leaders(net, primary, params.leaders, rng)
    elif ring.primary != primary:
        raise ProtocolError("ring primary disagrees with the requested primary")
    best_key = None  # the best key of the leaders embedded so far
    if embedder is None:
        def embedder(nid: int) -> LocalEmbedOutcome:
            return embed(nid, net, vnr, params, floor=best_key)

    members = ring.members
    outcomes, carried, metrics = [], [], []  # carried and metrics as ElectionTrace keeps them
    for pos, nid in enumerate(members):
        outcomes.append(embedder(nid))
        metric = outcomes[pos].metric()
        key = _key(nid, metric)
        if pos == 0 or key > best_key:
            best, best_key = pos, key
        carried.append(best)
        metrics.append(None if metric == INFEASIBLE else metric)
    trace = ElectionTrace(vnr.request_id, members, carried, metrics)
    return ElectionResult(outcomes[best], trace, members[best])
