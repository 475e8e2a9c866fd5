"""The benchmark's per-layer tracer must still find what it wraps.

benchmarks/layers.py rebinds module attributes of the package by name.  A
rename or a call that no longer goes through a module global would leave a
span empty, and the traced benchmark run would then fail on it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from devine import GeneratorConfig, SimConfig, run_simulation
from devine.simulation import ALGORITHMS

LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    layers = _layers()
    for targets, _, _ in layers.SPANS.values():
        for module_name, attr in targets:
            assert callable(getattr(importlib.import_module(module_name), attr)), attr
    for module_name, cls_name, method in layers.COUNTERS.values():
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert callable(cls.__dict__[method]), method


def test_traced_run_records_a_dispatch_span_per_algorithm():
    layers = _layers()
    tracer = layers.Tracer()
    summaries = {}
    with layers.installed(tracer):
        for algorithm in ALGORITHMS:
            tracer.algorithm = algorithm
            summaries[algorithm] = run_simulation(SimConfig(
                generator=GeneratorConfig(server_count=10, link_probability=0.5),
                algorithm=algorithm,
                duration=10.0,
                seed=1,
            )).summary
    for algorithm in ALGORITHMS:
        dispatch = "protocol.election" if algorithm == "devine" else "baselines.embed"
        assert tracer.stats(algorithm, dispatch).durations, algorithm
        assert tracer.stats(algorithm, "embedding.verify").calls, algorithm
        assert tracer.stats(algorithm, "local_embed.map_link").calls, algorithm
    # each election embeds every leader once, through the module global
    election = tracer.stats("devine", "protocol.election")
    leaders = SimConfig().election.leaders
    assert tracer.stats("devine", "local_embed.embed").calls == leaders * election.calls > 0
    # the span's message count is the trace's, as the run reports it
    devine = summaries["devine"]
    assert election.counts["messages"] == devine["embedding_messages"] + devine["embedded_messages"]
    # the substrate rank, once per arrival, still goes through the module global
    assert tracer.stats("grc", "baselines.power_rank").calls
    # firstfit's and grc's choosers probe through node_fits: each pick is
    # probed once there and once more by try_place, so a chooser with a fit
    # test of its own would leave node_fits at the try_place count
    for algorithm in ("firstfit", "grc"):
        placed = tracer.stats(algorithm, "local_embed.try_place").calls
        assert tracer.stats(algorithm, "local_embed.node_fits").calls >= 2 * placed > 0, algorithm
