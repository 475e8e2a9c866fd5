"""Per-layer spans and counters for the traced benchmark run.

The traced run rebinds module attributes of the installed ``devine``
package (for example ``devine.local_embed.map_link``) to wrappers defined
here, and puts the originals back afterwards.  Nothing under ``src/`` knows
about the tracer.  Each wrapper records a span: its duration, and the part
of that duration covered by the spans it caused, so a layer's self time is
its duration minus its children's.  Spans are aggregated in memory per
(algorithm, span name) and read out when the run ends.

Two hot methods, ``_Scratch.node_fits`` and ``_Scratch.try_place``, are
counted but not timed: they run about 1.5 million times per thousand
arrivals, and a timer around each would distort the run more than it
explains.  ``devine.model`` has no calls of its own worth timing, so its cost
lands in the self time of its callers; ``devine.cli`` is outside the measured
path because the benchmark calls ``run_simulation`` directly.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class SpanStats:
    """Aggregated spans of one name for one algorithm."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)  # kept for dispatch spans only
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))


class Tracer:
    """In-memory span recorder; `algorithm` labels everything recorded next."""

    def __init__(self) -> None:
        self.algorithm = ""
        self.spans: dict[tuple[str, str], SpanStats] = defaultdict(SpanStats)
        self._open: list[list[float]] = []  # child time of each open span

    def stats(self, algorithm: str, name: str) -> SpanStats:
        return self.spans[(algorithm, name)]

    def span(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[SpanStats, object], None] | None = None,
        keep_durations: bool = False,
    ) -> Callable:
        """Wrap fn so each call records a span called `name`."""
        open_spans = self._open
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed
                stats = self.spans[(self.algorithm, name)]
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children[0]
                if keep_durations:
                    stats.durations.append(elapsed)
            if observe is not None:
                observe(stats, result)
            return result

        return wrapped

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap fn so each call is counted, without a timer."""

        def wrapped(*args, **kwargs):
            self.spans[(self.algorithm, name)].calls += 1
            return fn(*args, **kwargs)

        return wrapped


def _observe_election(stats: SpanStats, result) -> None:
    stats.counts["messages"] += result.trace.embedding_count + result.trace.embedded_count


def _observe_embed(stats: SpanStats, outcome) -> None:
    stats.counts["feasible"] += outcome.feasible
    stats.counts["inspected"] += outcome.inspected_count


def _observe_map_link(stats: SpanStats, path) -> None:
    stats.counts["found"] += path is not None


# span name -> (the module attributes it replaces, result observer, keep durations)
SPANS = {
    "generator.substrate": ([("devine.simulation", "generate_physical_network")], None, False),
    "generator.workload": ([("devine.simulation", "build_workload")], None, False),
    "simulation.sample": ([("devine.simulation", "_utilization")], None, False),
    "protocol.election": ([("devine.simulation", "run_election")], _observe_election, True),
    "baselines.embed": (
        [
            ("devine.simulation", "first_fit"),
            ("devine.simulation", "best_fit"),
            ("devine.simulation", "grc_embed"),
        ],
        None,
        True,
    ),
    "baselines.power_rank": ([("devine.baselines", "_power_rank")], None, False),
    "local_embed.embed": ([("devine.protocol", "embed")], _observe_embed, False),
    "local_embed.map_link": ([("devine.local_embed", "map_link")], _observe_map_link, False),
    "embedding.verify": (
        [
            ("devine.simulation", "verify_solution"),
            ("devine.protocol", "verify_solution"),
            ("devine.embedding", "verify_solution"),  # allocate verifies again
        ],
        None,
        False,
    ),
    "embedding.allocate": (
        [("devine.simulation", "allocate"), ("devine.protocol", "allocate")], None, False
    ),
    "embedding.release": ([("devine.simulation", "release")], None, False),
}

# counter name -> (module, class, method)
COUNTERS = {
    "local_embed.node_fits": ("devine.local_embed", "_Scratch", "node_fits"),
    "local_embed.try_place": ("devine.local_embed", "_Scratch", "try_place"),
}


@contextmanager
def installed(tracer: Tracer):
    """Rebind every traced attribute to its wrapper; restore all on exit."""
    saved: list[tuple[object, str, object]] = []
    try:
        for name, (targets, observe, keep) in SPANS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.span(name, original, observe, keep))
        for name, (module_name, cls_name, method) in COUNTERS.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[method]
            saved.append((cls, method, original))
            setattr(cls, method, tracer.counter(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
