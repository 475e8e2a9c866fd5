import math
from dataclasses import replace
from unittest import mock

import pytest

from devine import (
    ALGORITHMS,
    ElectionParams,
    GeneratorConfig,
    PhysicalNetwork,
    SimConfig,
    SimulationError,
    Violation,
    allocate,
    build_workload,
    compare_algorithms,
    first_fit,
    generate_physical_network,
    run_simulation,
    stream,
    verify_solution,
)
from devine import embedding, protocol, simulation


def _small_cfg(algorithm="devine", **kw):
    gen = GeneratorConfig(server_count=15, link_probability=0.5)
    election = ElectionParams(leaders=3, alpha=5.0, beta=2)
    cfg = SimConfig(generator=gen, election=election, algorithm=algorithm,
                    duration=100.0, sampling_interval=10.0, seed=7)
    return replace(cfg, **kw) if kw else cfg


def test_config_validation():
    _small_cfg().validate()
    with pytest.raises(ValueError):
        _small_cfg(algorithm="neurovine").validate()
    with pytest.raises(ValueError):
        _small_cfg(duration=-1.0).validate()
    with pytest.raises(ValueError):
        _small_cfg(sampling_interval=0.0).validate()
    with pytest.raises(ValueError):
        _small_cfg(trace_sample=-1).validate()
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must lie in"):
            _small_cfg(seed=seed).validate()
    _small_cfg(seed=2**64 - 1).validate()
    for bad in (
        {"duration": math.nan},
        {"duration": math.inf},
        {"sampling_interval": math.nan},
        {"sampling_interval": math.inf},
        {"duration": 1e6, "sampling_interval": 0.01},  # 1e8 samples
        {"duration": 1e7},  # 2e7 expected arrivals at rate 2
    ):
        with pytest.raises(ValueError):
            _small_cfg(**bad).validate()
    _small_cfg(duration=1e7, sampling_interval=1.0,
               generator=GeneratorConfig(arrival_rate=1.0)).validate()  # both caps exactly met
    # a ring needs distinct servers, which only devine draws
    crowded = _small_cfg(election=ElectionParams(leaders=16))
    with pytest.raises(ValueError, match="leaders"):
        crowded.validate()
    for algorithm in ("firstfit", "bestfit", "grc"):
        replace(crowded, algorithm=algorithm).validate()
    replace(crowded, election=ElectionParams(leaders=15)).validate()


def test_config_dict_round_trip():
    cfg = _small_cfg(algorithm="grc", seed=99, duration=123.0)
    again = SimConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.generator.vnr_size == (4, 10)
    assert SimConfig.from_dict({}) == SimConfig()


def test_workload_is_deterministic_and_poisson_paced():
    gen = GeneratorConfig(server_count=20, link_probability=0.5, arrival_rate=2.0)
    first = build_workload(gen, 500.0, seed=11)
    second = build_workload(gen, 500.0, seed=11)
    assert [v.fingerprint() for _, v, _ in first] == [v.fingerprint() for _, v, _ in second]
    assert [p for inner in (first,) for _, _, p in inner] == [p for _, _, p in second]
    times = [t for t, _, _ in first]
    assert times == sorted(times)
    assert times[-1] <= 500.0
    # arrivals in [0, T] are Poisson(rate * T): mean 1000, sigma ~ 31.6
    assert abs(len(first) - 1000) < 4 * math.sqrt(1000)
    assert all(0 <= p < 20 for _, _, p in first)
    assert [v.request_id for _, v, _ in first] == list(range(len(first)))


def test_default_rate_arrival_count():
    # rate 2 over 2000 time units: Poisson(4000), sigma ~ 63
    gen = GeneratorConfig()
    workload = build_workload(gen, 2000.0, seed=3)
    assert abs(len(workload) - 4000) < 3 * math.sqrt(4000)


def test_zero_duration_run_is_empty():
    result = run_simulation(_small_cfg(duration=0.0))
    assert result.series == []
    assert result.per_arrival == []
    assert result.summary["arrivals"] == 0
    assert result.summary["acceptance_ratio"] == 0.0
    assert result.summary["conservation_ok"] is True


def test_uniform_arrival_process_spaces_exactly():
    gen = GeneratorConfig(server_count=5, arrival_rate=2.0, arrival_process="uniform")
    workload = build_workload(gen, 10.0, seed=0)
    assert len(workload) == 20
    assert [t for t, _, _ in workload] == [0.5 * (k + 1) for k in range(20)]


def test_run_summary_series_and_per_arrival_are_consistent():
    result = run_simulation(_small_cfg())
    summary = result.summary
    assert summary["conservation_ok"] is True
    assert summary["arrivals"] == len(result.per_arrival)
    assert summary["acceptances"] == sum(r.accepted for r in result.per_arrival)
    assert summary["acceptance_ratio"] == pytest.approx(
        summary["acceptances"] / summary["arrivals"]
    )
    assert summary["revenue"] == pytest.approx(sum(r.revenue for r in result.per_arrival))
    assert summary["cost"] == pytest.approx(sum(r.cost for r in result.per_arrival))
    if summary["cost"] > 0:
        assert summary["revenue_cost_ratio"] == pytest.approx(
            summary["revenue"] / summary["cost"]
        )

    times = [s.time for s in result.series]
    assert times == [10.0 * (k + 1) for k in range(10)]  # epochs, then the horizon
    arrivals_seen = [s.arrivals for s in result.series]
    assert arrivals_seen == sorted(arrivals_seen)
    assert result.series[-1].arrivals == summary["arrivals"]
    assert result.per_arrival[-1].acceptance_ratio == pytest.approx(
        summary["acceptance_ratio"]
    )
    ids = [r.request_id for r in result.per_arrival]
    assert ids == sorted(ids)
    assert 0.0 <= summary["mean_cpu_utilization"] <= 1.0
    assert 0.0 <= summary["mean_link_utilization"] <= 1.0


def test_still_embedded_requests_load_the_final_sample():
    # lifetimes dwarf the horizon, so everything accepted is still resident
    gen = GeneratorConfig(server_count=15, link_probability=0.5, lifetime=(1000.0, 1.0))
    cfg = _small_cfg()
    cfg.generator = gen
    cfg.duration = 50.0
    result = run_simulation(cfg)
    assert result.summary["acceptances"] > 0
    assert result.series[-1].cpu_utilization > 0.0
    assert result.summary["conservation_ok"] is True  # wind-down still releases all


def test_equal_times_run_departures_then_arrivals_then_the_sample():
    # request k arrives at time k and leaves at k + 1, the moment request k + 1
    # arrives and epoch k + 1 samples: the sample sees request k + 1 alone
    gen = GeneratorConfig(server_count=15, link_probability=0.5, arrival_rate=1.0,
                          arrival_process="uniform", lifetime=(1.0, 0.0))
    cfg = _small_cfg("firstfit", generator=gen, duration=5.5, sampling_interval=1.0)
    result = run_simulation(cfg)
    assert [s.time for s in result.series] == [1.0, 2.0, 3.0, 4.0, 5.0, 5.5]
    assert [s.arrivals for s in result.series] == [1, 2, 3, 4, 5, 5]
    workload = build_workload(gen, cfg.duration, cfg.seed)
    for sample, (when, vnr, _) in zip(result.series, workload):
        assert sample.time == when
        fresh = generate_physical_network(gen, stream(cfg.seed, "topology"))
        outcome = first_fit(fresh, vnr, cfg.election)
        assert outcome.feasible
        allocate(fresh, vnr, outcome.solution, {}, injective=cfg.election.injective)
        assert sample.cpu_utilization == simulation._utilization(fresh)[0] > 0.0
    assert result.series[-1].cpu_utilization == result.series[-2].cpu_utilization


def test_election_message_accounting_per_arrival():
    leaders = 3
    result = run_simulation(_small_cfg(election=ElectionParams(leaders=leaders, alpha=5.0, beta=2)))
    assert result.summary["arrivals"] > 50
    for record in result.per_arrival:
        assert record.embedded_messages == leaders
        assert leaders <= record.embedding_messages <= 2 * leaders - 1
    assert result.summary["embedded_messages"] == leaders * result.summary["arrivals"]
    assert len(result.traces) == 10  # default trace_sample


def test_an_election_builds_its_trace_events_only_when_read(monkeypatch):
    event, built = protocol.TraceEvent, []
    monkeypatch.setattr(protocol, "TraceEvent", lambda *args: built.append(args) or event(*args))
    result = run_simulation(_small_cfg(trace_sample=0))
    assert result.summary["embedding_messages"] > 0 and built == []
    result = run_simulation(_small_cfg(trace_sample=3))
    assert len(result.traces) == 3 and built == []
    lines = sum(len(trace.to_jsonl().splitlines()) for trace in result.traces)
    assert len(built) == lines == sum(t.embedding_count + t.embedded_count for t in result.traces)
    assert lines < result.summary["embedding_messages"]  # the other elections built none


def test_baselines_run_message_free():
    for algorithm in ("firstfit", "bestfit", "grc"):
        result = run_simulation(_small_cfg(algorithm=algorithm))
        assert result.summary["embedding_messages"] == 0
        assert result.summary["embedded_messages"] == 0
        assert result.traces == []
        assert result.summary["conservation_ok"] is True


def test_repeat_runs_are_identical():
    first = run_simulation(_small_cfg())
    second = run_simulation(_small_cfg())
    assert first.summary == second.summary
    assert first.series == second.series
    assert first.per_arrival == second.per_arrival


def test_workload_digest_is_algorithm_independent():
    digests = {
        algorithm: run_simulation(_small_cfg(algorithm=algorithm)).summary["workload_digest"]
        for algorithm in ("devine", "firstfit", "bestfit", "grc")
    }
    assert len(set(digests.values())) == 1
    other_seed = run_simulation(_small_cfg(seed=8)).summary["workload_digest"]
    assert other_seed not in digests.values()


def test_compare_algorithms_rows_and_aggregates():
    cfg = _small_cfg(duration=60.0)
    rows, aggregates = compare_algorithms(cfg, ["devine", "firstfit"], [1, 2, 3])
    assert len(rows) == 6
    assert [a["algorithm"] for a in aggregates] == ["devine", "firstfit"]
    for agg in aggregates:
        mine = sorted(
            row["acceptance_ratio"] for row in rows if row["algorithm"] == agg["algorithm"]
        )
        assert agg["runs"] == 3
        assert agg["median_acceptance_ratio"] == pytest.approx(mine[1])
        mean_rev = sum(
            row["revenue"] for row in rows if row["algorithm"] == agg["algorithm"]
        ) / 3
        assert agg["mean_revenue"] == pytest.approx(mean_rev)
    with pytest.raises(ValueError):
        compare_algorithms(cfg, [], [1])
    with pytest.raises(ValueError):
        compare_algorithms(cfg, ["devine"], [])


@pytest.mark.parametrize("algorithms, seeds, message", [
    (["firstfit", "firstfit"], [1, 2], "algorithms names firstfit more than once"),
    (["devine", "grc"], [3, 1, 3], "seeds names 3 more than once"),
])
def test_compare_algorithms_rejects_a_repeat_before_any_run(algorithms, seeds, message):
    # a repeat would run twice and count twice in its aggregate's runs and medians
    with mock.patch.object(simulation, "run_simulation") as run:
        with pytest.raises(ValueError, match=message):
            compare_algorithms(_small_cfg(), algorithms, seeds)
    assert not run.called


def test_acceptance_does_not_rise_with_offered_load():
    # doubling the arrival rate on the same substrate cannot help acceptance
    def median_acceptance(rate):
        ratios = []
        for seed in range(5):
            gen = GeneratorConfig(server_count=15, link_probability=0.5, arrival_rate=rate)
            cfg = SimConfig(generator=gen, algorithm="firstfit", duration=150.0, seed=seed)
            ratios.append(run_simulation(cfg).summary["acceptance_ratio"])
        return sorted(ratios)[2]

    assert median_acceptance(4.0) <= median_acceptance(1.0) + 0.02


def test_more_leaders_do_not_hurt_acceptance():
    # a full ring with a generous budget sees every option a single leader does
    def median_acceptance(leaders):
        ratios = []
        for seed in range(10):
            gen = GeneratorConfig(server_count=12, link_probability=0.5)
            cfg = SimConfig(
                generator=gen,
                election=ElectionParams(leaders=leaders, alpha=30.0, beta=3),
                duration=60.0,
                seed=seed,
            )
            ratios.append(run_simulation(cfg).summary["acceptance_ratio"])
        ordered = sorted(ratios)
        return (ordered[4] + ordered[5]) / 2

    assert median_acceptance(12) >= median_acceptance(1) - 0.02


def test_every_feasible_outcome_is_verified_exactly_once(monkeypatch):
    # allocate verifies; nothing else on the admission path may verify again
    verified = [0]
    real_verify = embedding.verify_solution

    def counting_verify(*args, **kwargs):
        verified[0] += 1
        return real_verify(*args, **kwargs)

    for module in (embedding, protocol, simulation):
        monkeypatch.setattr(module, "verify_solution", counting_verify)
    feasible = [0]

    def counting(embedder, outcome_of=lambda result: result):
        def wrapped(*args, **kwargs):
            result = embedder(*args, **kwargs)
            feasible[0] += outcome_of(result).feasible
            return result
        return wrapped

    monkeypatch.setattr(
        simulation, "run_election",
        counting(simulation.run_election, lambda election: election.outcome),
    )
    for name in ("first_fit", "best_fit", "grc_embed"):
        monkeypatch.setattr(simulation, name, counting(getattr(simulation, name)))
    for algorithm in ALGORITHMS:
        verified[0] = feasible[0] = 0
        summary = run_simulation(_small_cfg(algorithm=algorithm)).summary
        assert summary["acceptances"] > 0, algorithm
        assert verified[0] == feasible[0], algorithm


def test_stale_solution_is_rejected_at_allocate(monkeypatch):
    # the patched firstfit embeds on an empty copy of the substrate, so once
    # its first nodes fill up its solutions no longer fit the live residuals
    real_first_fit = simulation.first_fit
    stale = set()

    def stale_first_fit(net, vnr, params):
        empty = PhysicalNetwork(list(net.nodes), list(net.links))
        outcome = real_first_fit(empty, vnr, params)
        if outcome.feasible and isinstance(verify_solution(net, vnr, outcome.solution), Violation):
            stale.add(vnr.request_id)
        return outcome

    monkeypatch.setattr(simulation, "first_fit", stale_first_fit)
    result = run_simulation(_small_cfg(algorithm="firstfit"))
    assert stale
    for record in result.per_arrival:
        if record.request_id in stale:
            assert not record.accepted
            assert (record.revenue, record.cost, record.metric) == (0.0, 0.0, 0.0)
    assert result.summary["acceptances"] > 0
    assert result.summary["conservation_ok"] is True


def test_leaky_release_breaks_conservation(monkeypatch):
    # a release that forgets the ledger entry but keeps its resources held
    # leaves residuals below capacity once every request has left
    def leaky_release(net, request_id, ledger):
        ledger.pop(request_id)

    monkeypatch.setattr(simulation, "release", leaky_release)
    with pytest.raises(SimulationError, match="conservation broken"):
        run_simulation(_small_cfg(algorithm="firstfit"))


def test_means_add_left_to_right_on_every_python():
    # sum() compensates from Python 3.12 on and would give 1/3 here; the
    # summary and compare means pin the plain left-to-right sum on every version
    assert simulation._mean([1e16, 1.0, -1e16]) == 0.0
    assert simulation._mean([]) == 0.0
    assert simulation._mean([0.1, 0.2, 0.3]) == (0.1 + 0.2 + 0.3) / 3
