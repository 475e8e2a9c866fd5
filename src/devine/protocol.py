"""Leader ring election over candidate local embeddings.

The primary node draws a ring of candidate leaders, computes its own local
embedding, and sends a proposal around the ring.  Each leader forwards a
proposal that beats its own and overwrites one that does not; a leader that
receives its own proposal back has won and circulates the final solution.
Ties cannot livelock: proposals are ordered by (metric, -node id), so equal
metrics resolve toward the lowest node id.  A leader passes on at most one
message per delivery, so one message is in flight at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

# allocate and verify_solution stay importable for benchmarks/layers.py
from .embedding import EmbeddingSolution, allocate, verify_solution
from .local_embed import INFEASIBLE, LocalEmbedOutcome, LocalEmbedParams, embed
from .model import PhysicalNetwork, Vnr


class ProtocolError(RuntimeError):
    """Raised when an election cannot run or halts before completion."""


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

    def successor(self, node_id: int) -> int:
        pos = self.members.index(node_id)
        return self.members[(pos + 1) % len(self.members)]


@dataclass(frozen=True)
class EmbeddingMsg:
    """Circulating proposal: who claims the best embedding so far."""

    originator: int
    metric: float  # -inf when the originator found no feasible embedding

    def key(self) -> tuple[float, int]:
        # a NaN metric (x * revenue - y * cost overflowed) ranks as infeasible,
        # since it would break the total order the ring relies on
        metric = INFEASIBLE if math.isnan(self.metric) else self.metric
        return (metric, -self.originator)


@dataclass(frozen=True)
class EmbeddedMsg:
    """Final announcement: the winner and its solution (None if infeasible)."""

    winner: int
    solution: EmbeddingSolution | None


@dataclass(frozen=True)
class LeaderState:
    """One leader's view of a single election: its own local embedding."""

    node_id: int
    outcome: LocalEmbedOutcome

    def proposal(self) -> EmbeddingMsg:
        """This leader's own claim, built from its local embedding."""
        return EmbeddingMsg(self.node_id, self.outcome.metric())


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
    """Ordered log of every delivered message in one election."""

    def __init__(self, request_id: int):
        self.request_id = request_id
        self.events: list[TraceEvent] = []
        self.embedding_count = 0
        self.embedded_count = 0

    def record_message(self, sender: int, receiver: int, msg) -> None:
        if isinstance(msg, EmbeddingMsg):
            kind, subject, metric = "EMBEDDING", msg.originator, msg.metric
            self.embedding_count += 1
        else:
            kind = "EMBEDDED"
            subject = msg.winner
            metric = msg.solution.metric if msg.solution is not None else None
            self.embedded_count += 1
        if metric == INFEASIBLE:
            metric = None
        self.events.append(
            TraceEvent(len(self.events), self.request_id, kind, sender, receiver, subject, metric)
        )

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(asdict(e), sort_keys=True, allow_nan=False) for e in self.events
        )


def handle_embedding(state: LeaderState, msg: EmbeddingMsg) -> EmbeddingMsg | EmbeddedMsg:
    """React to a circulating proposal; returns the message passed on."""
    if msg.originator == state.node_id:
        # own proposal survived the full circle: announce the result
        return EmbeddedMsg(state.node_id, state.outcome.solution)
    own = state.proposal()
    return msg if msg.key() > own.key() else own


def handle_embedded(state: LeaderState, msg: EmbeddedMsg) -> EmbeddedMsg | None:
    """React to the final announcement; the winner absorbs it, others forward."""
    return None if msg.winner == state.node_id else msg


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
    ring: LeaderRing


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
    the shared network state as it stands at election start.  The election
    never mutates the network: the caller allocates the winning solution.
    """
    params = params or ElectionParams()
    params.validate()
    if ring is None:
        if rng is None:
            raise ValueError("pass an rng (or an explicit ring) to select leaders")
        ring = select_leaders(net, primary, params.leaders, rng)
    elif ring.primary != primary:
        raise ProtocolError("ring primary disagrees with the requested primary")
    if embedder is None:
        def embedder(nid: int) -> LocalEmbedOutcome:
            return embed(nid, net, vnr, params)

    states = {nid: LeaderState(nid, embedder(nid)) for nid in ring.members}
    trace = ElectionTrace(vnr.request_id)
    winner = primary

    if len(ring.members) > 1:
        # a correct ring delivers at most 2L-1 EMBEDDING and L EMBEDDED messages
        max_deliveries = 3 * len(ring.members) - 1
        sender, msg = primary, states[primary].proposal()
        while msg is not None:
            receiver = ring.successor(sender)
            trace.record_message(sender, receiver, msg)
            if len(trace.events) > max_deliveries:
                raise ProtocolError(
                    f"election for request {vnr.request_id} exceeded {max_deliveries} deliveries"
                )
            if isinstance(msg, EmbeddingMsg):
                msg = handle_embedding(states[receiver], msg)
            else:
                winner = msg.winner
                msg = handle_embedded(states[receiver], msg)
            sender = receiver
        # the announcement halts at the winner once it has reached every leader
        if trace.embedded_count != len(ring.members):
            raise ProtocolError(f"election for request {vnr.request_id} halted early")

    return ElectionResult(states[winner].outcome, trace, winner, ring)
