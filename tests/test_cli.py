import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import devine
from devine import ALGORITHMS, ElectionParams, GeneratorConfig, SimConfig, __version__
from devine.cli import OVERRIDES, main


def _child_env():
    """The environment with the imported devine's directory first on PYTHONPATH.

    A child `python -m devine` then imports the same package, installed or not.
    """
    path = [str(Path(devine.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def _base_flags(tmp_path, extra=()):
    return [
        "--servers", "10", "--link-prob", "0.6", "--duration", "30",
        "--leaders", "2", "--alpha", "3", "--beta", "2", "--seed", "5",
        "--out-dir", str(tmp_path), *extra,
    ]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_validate_prints_resolved_config_and_dispersion_rule(capsys):
    code = main(["validate", "--servers", "25", "--leaders", "7", "--x", "2.5", "--injective"])
    assert code == 0
    out = capsys.readouterr().out
    config = json.loads(out[: out.rindex("}") + 1])
    assert config["generator"]["server_count"] == 25
    assert config["election"]["leaders"] == 7
    assert config["election"]["x"] == 2.5
    assert config["election"]["injective"] is True
    assert "second interpreted as variance" in out


def test_override_table_names_real_fields_that_each_flag_reaches(capsys):
    sections = {None: SimConfig(), "generator": GeneratorConfig(), "election": ElectionParams()}
    values = {  # each differs from its default
        "--seed": "7", "--servers": "25", "--link-prob": "0.55", "--duration": "44",
        "--arrival-rate": "1.5", "--alpha": "4.5", "--beta": "2", "--leaders": "3",
        "--x": "2.5", "--y": "0.5",
    }
    assert values.keys() == OVERRIDES.keys()
    for command in ("run", "compare", "validate"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        for flag in OVERRIDES:
            assert re.search(re.escape(flag) + r"\b", text), (command, flag)
    for flag, (section, name, kind, _) in OVERRIDES.items():
        defaults = sections[section]
        assert name in {f.name for f in fields(defaults)}, flag
        assert main(["validate", flag, values[flag]]) == 0
        out = capsys.readouterr().out
        config = json.loads(out[: out.rindex("}") + 1])
        resolved = config if section is None else config[section]
        assert resolved[name] == kind(values[flag]) != getattr(defaults, name), flag


def test_flags_override_config_file(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "algorithm": "firstfit",
        "duration": 30,
        "generator": {"server_count": 10, "arrival_rate": 1.5},
    }))
    code = main(["validate", "--config", str(config_path), "--duration", "44"])
    assert code == 0
    out = capsys.readouterr().out
    config = json.loads(out[: out.rindex("}") + 1])
    assert config["algorithm"] == "firstfit"
    assert config["duration"] == 44.0  # flag wins
    assert config["generator"]["arrival_rate"] == 1.5  # file survives elsewhere


def test_run_writes_all_artifacts(tmp_path, capsys):
    code = main(["run", *_base_flags(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "accepted" in out and f"outputs written to {tmp_path}" in out

    series = _read_csv(tmp_path / "series.csv")
    assert series[0][:4] == ["time", "arrivals", "acceptances", "acceptance_ratio"]
    assert len(series) == 4  # header + samples at 10, 20, 30

    per_arrival = _read_csv(tmp_path / "per_arrival.csv")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(per_arrival) - 1 == summary["arrivals"]
    assert summary["algorithm"] == "devine"
    assert summary["conservation_ok"] is True

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["tool"] == "devine"
    assert manifest["version"] == __version__
    assert manifest["master_seed"] == 5
    assert manifest["config"]["generator"]["server_count"] == 10

    trace_lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert trace_lines
    assert {json.loads(line)["kind"] for line in trace_lines} <= {"EMBEDDING", "EMBEDDED"}


def test_baseline_run_skips_the_trace_file(tmp_path):
    assert main(["run", "--algorithm", "grc", *_base_flags(tmp_path)]) == 0
    assert not (tmp_path / "trace.jsonl").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["embedding_messages"] == 0


def test_baseline_run_removes_an_earlier_devine_trace(tmp_path):
    assert main(["run", *_base_flags(tmp_path)]) == 0
    assert (tmp_path / "trace.jsonl").read_text()
    assert main(["run", "--algorithm", "grc", *_base_flags(tmp_path)]) == 0
    # the directory now holds grc's outputs only, with no trace beside them
    assert json.loads((tmp_path / "summary.json").read_text())["algorithm"] == "grc"
    assert not (tmp_path / "trace.jsonl").exists()


def test_repeat_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", *_base_flags(a)]) == 0
    assert main(["run", *_base_flags(b)]) == 0
    for name in ("series.csv", "per_arrival.csv", "summary.json", "trace.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_manifest_reruns_the_same_simulation(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["run", *_base_flags(first)]) == 0
    assert main([
        "run", "--config", str(first / "manifest.json"), "--out-dir", str(second),
    ]) == 0
    assert (first / "series.csv").read_bytes() == (second / "series.csv").read_bytes()
    assert (first / "per_arrival.csv").read_bytes() == (second / "per_arrival.csv").read_bytes()


def test_out_dir_env_variable_is_honored(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DEVINE_OUT_DIR", str(tmp_path / "from_env"))
    assert main(["run", "--servers", "10", "--link-prob", "0.6", "--duration", "20",
                 "--leaders", "2", "--alpha", "3", "--beta", "2", "--seed", "5"]) == 0
    assert (tmp_path / "from_env" / "summary.json").exists()


def test_compare_writes_tables_and_notes_the_absent_algorithm(tmp_path, capsys):
    code = main([
        "compare", "--algorithms", "devine,firstfit", "--seeds", "1,2",
        *_base_flags(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "median_acceptance_ratio" in out
    assert "note: neurovine is not implemented" in out

    comparison = _read_csv(tmp_path / "comparison.csv")
    assert comparison[0][0] == "algorithm"
    assert len(comparison) == 5  # header + 2 algorithms x 2 seeds
    digest_col = comparison[0].index("workload_digest")
    seed_col = comparison[0].index("seed")
    by_seed = {}
    for row in comparison[1:]:
        by_seed.setdefault(row[seed_col], set()).add(row[digest_col])
    assert all(len(digests) == 1 for digests in by_seed.values())

    aggregate = _read_csv(tmp_path / "aggregate.csv")
    assert len(aggregate) == 3
    long_rows = _read_csv(tmp_path / "comparison_long.csv")
    assert len(long_rows) == 1 + 4 * 6  # 4 runs x 6 metrics

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["algorithms"] == ["devine", "firstfit"]
    assert manifest["seeds"] == [1, 2]


def test_compare_full_grid_row_count(tmp_path):
    code = main([
        "compare", "--seeds", "1,2,3",
        "--servers", "10", "--link-prob", "0.6", "--duration", "20",
        "--leaders", "2", "--alpha", "3", "--beta", "2",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    comparison = _read_csv(tmp_path / "comparison.csv")
    assert len(comparison) == 13  # header + 4 algorithms x 3 seeds


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--algorithms", "firstfit,firstfit", "--seeds", "1,2"], "--algorithms names firstfit"),
        (["--algorithms", "firstfit", "--seeds", "1,2,1"], "--seeds names 1 more than once"),
    ],
)
def test_compare_rejects_a_repeated_algorithm_or_seed(tmp_path, capsys, flags, message):
    # a repeat would run twice and count twice in the medians of aggregate.csv
    argv = ["compare", *flags, "--servers", "5", "--duration", "10", "--out-dir", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and message in err
    assert not (tmp_path / "aggregate.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--seed", "-1"],
        ["run", "--seed", str(2**64)],
        ["compare", "--algorithms", "firstfit", "--seeds", f"0,{2**64}"],
        ["compare", "--algorithms", "firstfit", "--seed", str(2**64 - 5)],  # seed..seed+9
    ],
)
def test_a_seed_outside_64_bits_exits_1(tmp_path, capsys, argv):
    # the streams read a seed's low 64 bits, so -1 would replay 2**64 - 1 and
    # 2**64 would replay 0, and compare would count one simulation twice
    out = tmp_path / "out"
    assert main([*argv, "--servers", "5", "--duration", "10", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "seed must lie in [0, 2**64)" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("capacity, column", [
    ("cpu_capacity", "cpu_utilization"), ("link_bandwidth", "link_utilization"),
])
def test_zero_capacities_count_as_unused(tmp_path, capacity, column):
    # every capacity rounds to 0 milli-units, so no share of it can be used
    config = {"generator": {"server_count": 5, capacity: [0.0001, 0.0], "resource_floor": 1e-6}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**config, "duration": 20}))
    assert main(["run", "--config", str(config_path), "--out-dir", str(tmp_path / "out")]) == 0
    header, *rows = _read_csv(tmp_path / "out" / "series.csv")
    assert rows and {float(row[header.index(column)]) for row in rows} == {0.0}


def test_config_errors_exit_1(tmp_path, capsys):
    cases = [
        ["run", "--algorithm", "neurovine", "--out-dir", str(tmp_path)],
        ["run", "--algorithm", "mystery", "--out-dir", str(tmp_path)],
        ["validate", "--servers", "0"],
        ["validate", "--leaders", "0"],
        ["run", "--servers", "3", "--duration", "5", "--out-dir", str(tmp_path)],  # 5 leaders
        ["validate", "--servers", "1001"],
        ["validate", "--config", str(tmp_path / "huge_vnr.json")],
        ["compare", "--algorithms", ",", "--out-dir", str(tmp_path)],
        ["compare", "--algorithms", "devine,neurovine", "--out-dir", str(tmp_path)],
        ["compare", "--algorithms", "devine", "--seeds", "1,x", "--out-dir", str(tmp_path)],
        ["validate", "--config", str(tmp_path / "missing.json")],
        # generation fails: no connected substrate in 100 draws at these densities
        ["run", "--link-prob", "0.01", "--servers", "10", "--out-dir", str(tmp_path)],
        ["run", "--servers", "3", "--link-prob", "0", "--duration", "10", "--leaders", "2",
         "--out-dir", str(tmp_path)],
    ]
    mistyped = [
        {"duration": "100"},
        {"generator": {"server_count": 20.5}},
        {"seed": 1.5},
        {"election": {"injective": "yes"}},
        {"trace_sample": True},
    ]
    for i, config in enumerate(mistyped):
        config_path = tmp_path / f"mistyped{i}.json"
        config_path.write_text(json.dumps(config))
        cases.append(["run", "--config", str(config_path), "--out-dir", str(tmp_path)])
    unrunnable = [  # (config, algorithm)
        ({"grc": {"tolerance": 1e-300}}, "grc"),  # the rank never converges
        ({"grc": {"damping": 0.999999999999, "max_iterations": 5}}, "grc"),
        ({"generator": {"cpu_capacity": [1e16, 400.0]}}, "bestfit"),  # overflows int64
        ({"generator": {"memory_capacity": [2e305, 300.0]}}, "devine"),  # milli-units inf
    ]
    for i, (config, algorithm) in enumerate(unrunnable):
        config_path = tmp_path / f"unrunnable{i}.json"
        config_path.write_text(json.dumps(config))
        cases.append(["run", "--config", str(config_path), "--algorithm", algorithm,
                      "--servers", "10", "--duration", "30", "--out-dir", str(tmp_path)])
    for name, text in (("number.json", "5"), ("null.json", "null")):
        config_path = tmp_path / name  # valid JSON, but not an object
        config_path.write_text(text)
        cases.append(["validate", "--config", str(config_path)])
    (tmp_path / "huge_vnr.json").write_text(json.dumps({"generator": {"vnr_size": [4, 1001]}}))
    for argv in cases:
        assert main(argv) == 1, argv
        assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, config, message",
    [
        (["--arrival-rate", "inf", "--duration", "1"], None, "arrival_rate must be finite"),
        (["--duration", "nan"], None, "duration must be finite"),
        (["--duration", "inf"], None, "duration must be finite"),
        ([], {"sampling_interval": float("nan")}, "sampling_interval must be finite"),
        (["--arrival-rate", "1000", "--duration", "1e5"], None, "arrival_rate * duration"),
        ([], {"sampling_interval": 1e-6}, "duration / sampling_interval"),
    ],
)
def test_unrunnable_inputs_exit_1_instead_of_hanging(tmp_path, flags, config, message):
    # these inputs once looped forever or ran out of memory, so a subprocess
    # with a timeout keeps a regression from hanging the suite
    if config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))  # writes NaN as a bare literal
        flags = [*flags, "--config", str(config_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "devine", "run", *flags, "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=60, env=_child_env(),
    )
    assert proc.returncode == 1
    assert "config error:" in proc.stderr and message in proc.stderr
    assert not (tmp_path / "summary.json").exists()


def test_leader_count_binds_devine_only(tmp_path):
    # the other algorithms draw no ring, so a substrate smaller than it runs
    assert main(["run", "--algorithm", "firstfit", "--servers", "3", "--duration", "30",
                 "--out-dir", str(tmp_path / "run")]) == 0
    assert main(["compare", "--algorithms", "firstfit,bestfit,grc", "--servers", "3",
                 "--duration", "30", "--seeds", "1", "--out-dir", str(tmp_path / "cmp")]) == 0


@pytest.mark.parametrize(
    "flags",
    [
        ["--alpha", "1e308", "--servers", "5"],  # alpha * size overflows to inf
        ["--x", "1e308", "--y", "1e308", "--servers", "10"],  # every metric is NaN: all rejected
    ],
)
def test_overflowing_finite_settings_still_run(tmp_path, flags):
    assert main(["run", *flags, "--duration", "30", "--out-dir", str(tmp_path)]) == 0
    assert _strict_json((tmp_path / "summary.json").read_text())["conservation_ok"] is True
    _strict_json((tmp_path / "manifest.json").read_text())
    header, *rows = _read_csv(tmp_path / "per_arrival.csv")
    metric = header.index("metric")
    assert rows and all(math.isfinite(float(row[metric])) for row in rows)
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert lines and all(_strict_json(line) for line in lines)


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=reject)


EXTREMES = (0, 5e-324, -1, 1e16, 1e300, 1e308, math.inf, -math.inf, math.nan)
# a large duration or arrival rate is a valid config that runs for minutes
BOUNDED = {"duration": 30, "arrival_rate": 5}


@st.composite
def extreme_configs(draw):
    """Small default-based configs with one to three numbers set to extremes."""
    config = json.loads(json.dumps(SimConfig().to_dict()))
    gen = config["generator"]
    gen["server_count"] = draw(st.integers(1, 30))
    lo = draw(st.integers(1, 10))
    gen["vnr_size"] = [lo, draw(st.integers(lo, 10))]
    gen["arrival_rate"] = draw(st.floats(0, BOUNDED["arrival_rate"]))
    gen["arrival_process"] = draw(st.sampled_from(["poisson", "uniform"]))
    gen["second_parameter"] = draw(st.sampled_from(["variance", "std"]))
    config["election"]["leaders"] = draw(st.integers(1, 5))
    config["duration"] = draw(st.floats(0, BOUNDED["duration"]))
    config["algorithm"] = draw(st.sampled_from(ALGORITHMS))
    config["seed"] = draw(st.integers(0, 2**32))
    slots = []  # (section dict, key, index within a pair or None)
    for values in (config, *(v for v in config.values() if isinstance(v, dict))):
        for key, value in values.items():
            if isinstance(value, list):
                slots += [(values, key, 0), (values, key, 1)]
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                slots.append((values, key, None))
    for values, key, index in draw(st.lists(st.sampled_from(slots), min_size=1, max_size=3)):
        bound = BOUNDED.get(key, math.inf)
        value = draw(st.sampled_from([v for v in EXTREMES if not bound < v < math.inf]))
        if index is None:
            values[key] = value
        else:
            values[key][index] = value
    return config


@settings(max_examples=100, deadline=None)
@given(config=extreme_configs())
def test_any_config_runs_clean_or_exits_1(config):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        config_path = out / "config.json"
        config_path.write_text(json.dumps(config))  # inf and nan as Infinity/NaN tokens
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(config_path), "--out-dir", str(out)])
        if code == 1:
            assert "config error:" in err.getvalue()
            return
        assert code == 0, err.getvalue()
        summary = _strict_json((out / "summary.json").read_text())
        assert all(
            math.isfinite(value) for value in summary.values() if isinstance(value, (int, float))
        )
        _strict_json((out / "manifest.json").read_text())
        if config["algorithm"] == "devine":
            for line in (out / "trace.jsonl").read_text().splitlines():
                _strict_json(line)


def test_neurovine_message_names_it(capsys):
    assert main(["run", "--algorithm", "neurovine"]) == 1
    err = capsys.readouterr().err
    assert "neurovine" in err and "not implemented" in err


def test_malformed_config_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--config", str(bad)]) == 1
    assert "config error:" in capsys.readouterr().err


def test_runtime_failures_exit_2(tmp_path, capsys):
    # the output directory cannot be made: a file holds its name
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["run", "--servers", "10", "--duration", "10", "--out-dir", str(taken)])
    assert code == 2
    assert "runtime error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--servers", "abc"], "argument --servers: invalid int value: 'abc'"),
        (["run", "--bogus"], "unrecognized arguments: --bogus"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: command"),
        # argparse reads -1e3 as a flag, not a negative number; --y=-1e3 works
        (["validate", "--y", "-1e3"], "argument --y: expected one argument"),
    ],
)
def test_parse_errors_exit_1_with_their_message(argv, message, capsys):
    assert main(argv) == 1
    assert message in capsys.readouterr().err


def test_help_exits_0_and_a_joined_negative_value_parses(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--servers" in capsys.readouterr().out
    assert main(["validate", "--y=-1e3"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out[: out.rindex("}") + 1])["election"]["y"] == -1000.0
    proc = subprocess.run(
        [sys.executable, "-m", "devine", "run", "--bogus"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 1 and "unrecognized arguments: --bogus" in proc.stderr


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "devine", "--version"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout
