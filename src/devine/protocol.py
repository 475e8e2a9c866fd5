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
from collections import deque
from dataclasses import dataclass
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

    request_id: int
    originator: int
    metric: float  # -inf when the originator found no feasible embedding
    ring: LeaderRing

    def key(self) -> tuple[float, int]:
        return (self.metric, -self.originator)


@dataclass(frozen=True)
class EmbeddedMsg:
    """Final announcement: the winner and its solution (None if infeasible)."""

    request_id: int
    winner: int
    solution: EmbeddingSolution | None
    ring: LeaderRing


class LeaderState:
    """One leader's view of a single election."""

    def __init__(
        self,
        node_id: int,
        request_id: int,
        ring: LeaderRing,
        embedder: Callable[[], LocalEmbedOutcome],
    ):
        self.node_id = node_id
        self.request_id = request_id
        self.ring = ring
        self.phase = "idle"  # idle -> electing -> announcing -> done
        self.embed_calls = 0
        self._embedder = embedder
        self._outcome: LocalEmbedOutcome | None = None

    def outcome(self) -> LocalEmbedOutcome:
        """Local embedding, computed at most once per election."""
        if self._outcome is None:
            self.embed_calls += 1
            self._outcome = self._embedder()
        return self._outcome

    def metric(self) -> float:
        return self.outcome().metric()

    def key(self) -> tuple[float, int]:
        return (self.metric(), -self.node_id)


@dataclass
class TraceEvent:
    """One transported message (or dropped delivery) in an election."""

    seq: int
    request_id: int
    kind: str  # EMBEDDING | EMBEDDED | DROP
    sender: int
    receiver: int
    subject: int  # originator for EMBEDDING, winner for EMBEDDED
    metric: float | None

    def to_json_dict(self) -> dict:
        metric = self.metric
        if metric is not None and metric == INFEASIBLE:
            metric = None
        return {
            "seq": self.seq,
            "request_id": self.request_id,
            "kind": self.kind,
            "sender": self.sender,
            "receiver": self.receiver,
            "subject": self.subject,
            "metric": metric,
        }


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
        self.events.append(
            TraceEvent(len(self.events), self.request_id, kind, sender, receiver, subject, metric)
        )

    def note_drop(self, receiver: int, msg) -> None:
        subject = msg.originator if isinstance(msg, EmbeddingMsg) else msg.winner
        self.events.append(
            TraceEvent(len(self.events), self.request_id, "DROP", -1, receiver, subject, None)
        )

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(e.to_json_dict(), sort_keys=True) for e in self.events)


class FifoTransport:
    """Reliable in-order delivery; one global queue drained deterministically."""

    def __init__(self):
        self._queue: deque[tuple[int, int, object]] = deque()

    def send(self, sender: int, receiver: int, msg) -> None:
        self._queue.append((sender, receiver, msg))

    def deliver_next(self) -> tuple[int, int, object] | None:
        return self._queue.popleft() if self._queue else None


def handle_embedding(
    state: LeaderState, msg: EmbeddingMsg, trace: ElectionTrace | None = None
) -> list[tuple[int, object]]:
    """React to a circulating proposal; returns (receiver, message) sends."""
    if msg.request_id != state.request_id:
        if trace is not None:
            trace.note_drop(state.node_id, msg)
        return []
    successor = msg.ring.successor(state.node_id)
    if msg.originator == state.node_id:
        # own proposal survived the full circle: announce the result
        state.phase = "announcing"
        solution = state.outcome().solution
        return [(successor, EmbeddedMsg(msg.request_id, state.node_id, solution, msg.ring))]
    state.phase = "electing"
    if msg.key() > state.key():
        return [(successor, msg)]
    takeover = EmbeddingMsg(msg.request_id, state.node_id, state.metric(), msg.ring)
    return [(successor, takeover)]


def handle_embedded(
    state: LeaderState, msg: EmbeddedMsg, trace: ElectionTrace | None = None
) -> list[tuple[int, object]]:
    """React to the final announcement; the winner absorbs it, others forward."""
    if msg.request_id != state.request_id:
        if trace is not None:
            trace.note_drop(state.node_id, msg)
        return []
    state.phase = "done"
    if msg.winner == state.node_id:
        return []
    return [(msg.ring.successor(state.node_id), msg)]


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

    states = {
        nid: LeaderState(nid, vnr.request_id, ring, (lambda n=nid: embedder(n)))
        for nid in ring.members
    }
    trace = ElectionTrace(vnr.request_id)
    primary_state = states[primary]
    primary_state.phase = "electing"
    winner = primary

    if len(ring.members) > 1:
        transport = transport or FifoTransport()
        first = EmbeddingMsg(vnr.request_id, primary, primary_state.metric(), ring)
        transport.send(primary, ring.successor(primary), first)
        winner = -1
        while True:
            delivery = transport.deliver_next()
            if delivery is None:
                break
            sender, receiver, msg = delivery
            trace.record_message(sender, receiver, msg)
            state = states[receiver]
            if isinstance(msg, EmbeddingMsg):
                sends = handle_embedding(state, msg, trace)
            else:
                winner = msg.winner
                sends = handle_embedded(state, msg, trace)
            for to, outgoing in sends:
                transport.send(receiver, to, outgoing)
        if winner < 0 or states[winner].phase != "done":
            raise ProtocolError(f"election for request {vnr.request_id} halted early")

    return ElectionResult(states[winner].outcome(), trace, winner, ring)
