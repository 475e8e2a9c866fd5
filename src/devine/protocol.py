"""Leader ring election over candidate local embeddings.

The primary node draws a ring of candidate leaders, computes its own local
embedding, and sends a proposal around the ring.  Each leader forwards a
proposal that beats its own and overwrites one that does not; a leader that
receives its own proposal back has won and circulates the final solution.
Ties cannot livelock: proposals are ordered by (metric, -node id), so equal
metrics resolve toward the lowest node id.
"""

from __future__ import annotations

import json
import math
from collections import deque
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


class LeaderState:
    """One leader's view of a single election."""

    def __init__(self, node_id: int, ring: LeaderRing, embedder: Callable[[], LocalEmbedOutcome]):
        self.node_id = node_id
        self.ring = ring
        self._embedder = embedder
        self._outcome: LocalEmbedOutcome | None = None

    def outcome(self) -> LocalEmbedOutcome:
        """Local embedding, computed at most once per election."""
        if self._outcome is None:
            self._outcome = self._embedder()
        return self._outcome

    def proposal(self) -> EmbeddingMsg:
        """This leader's own claim, built from its local embedding."""
        return EmbeddingMsg(self.node_id, self.outcome().metric())


@dataclass
class TraceEvent:
    """One transported message in an election."""

    seq: int
    request_id: int
    kind: str  # EMBEDDING | EMBEDDED
    sender: int
    receiver: int
    subject: int  # originator for EMBEDDING, winner for EMBEDDED
    metric: float | None  # None when infeasible


class ElectionTrace:
    """Ordered log of every transported message in one election."""

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


class FifoTransport:
    """Reliable in-order delivery; one global queue drained deterministically."""

    def __init__(self):
        self._queue: deque[tuple[int, int, object]] = deque()

    def send(self, sender: int, receiver: int, msg) -> None:
        self._queue.append((sender, receiver, msg))

    def deliver_next(self) -> tuple[int, int, object] | None:
        return self._queue.popleft() if self._queue else None


def handle_embedding(state: LeaderState, msg: EmbeddingMsg) -> list[tuple[int, object]]:
    """React to a circulating proposal; returns (receiver, message) sends."""
    successor = state.ring.successor(state.node_id)
    if msg.originator == state.node_id:
        # own proposal survived the full circle: announce the result
        return [(successor, EmbeddedMsg(state.node_id, state.outcome().solution))]
    own = state.proposal()
    return [(successor, msg if msg.key() > own.key() else own)]


def handle_embedded(state: LeaderState, msg: EmbeddedMsg) -> list[tuple[int, object]]:
    """React to the final announcement; the winner absorbs it, others forward."""
    if msg.winner == state.node_id:
        return []
    return [(state.ring.successor(state.node_id), msg)]


def select_leaders(
    net: PhysicalNetwork, primary: int, leaders: int, rng: np.random.Generator
) -> LeaderRing:
    """Primary plus leaders-1 distinct nodes drawn uniformly, in draw order."""
    if not 0 <= primary < net.num_nodes:
        raise ValueError(f"unknown primary node {primary}")
    if not 1 <= leaders <= net.num_nodes:
        raise ValueError(f"leaders must lie in [1, {net.num_nodes}], got {leaders}")
    others = [nid for nid in range(net.num_nodes) if nid != primary]
    picked = rng.choice(len(others), size=leaders - 1, replace=False)
    return LeaderRing((primary, *(others[int(i)] for i in picked)))


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
    transport: FifoTransport | None = None,
    embedder: Callable[[int], LocalEmbedOutcome] | None = None,
) -> ElectionResult:
    """Run one full election for a request and return the winner's embedding.

    Every leader computes its local embedding at most once, against the
    shared network state as it stands at election start.  The election
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

    states = {nid: LeaderState(nid, ring, (lambda n=nid: embedder(n))) for nid in ring.members}
    trace = ElectionTrace(vnr.request_id)
    winner = primary

    if len(ring.members) > 1:
        # a correct ring delivers at most 2L-1 EMBEDDING and L EMBEDDED messages
        max_deliveries = 3 * len(ring.members) - 1
        transport = transport or FifoTransport()
        transport.send(primary, ring.successor(primary), states[primary].proposal())
        while (delivery := transport.deliver_next()) is not None:
            sender, receiver, msg = delivery
            trace.record_message(sender, receiver, msg)
            if len(trace.events) > max_deliveries:
                raise ProtocolError(
                    f"election for request {vnr.request_id} exceeded {max_deliveries} deliveries"
                )
            if isinstance(msg, EmbeddingMsg):
                sends = handle_embedding(states[receiver], msg)
            else:
                winner = msg.winner
                sends = handle_embedded(states[receiver], msg)
            for to, outgoing in sends:
                transport.send(receiver, to, outgoing)
        # the announcement halts at the winner once it has reached every leader
        if trace.embedded_count != len(ring.members):
            raise ProtocolError(f"election for request {vnr.request_id} halted early")

    return ElectionResult(states[winner].outcome(), trace, winner, ring)
