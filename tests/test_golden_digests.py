"""Golden digests: fixed seeds must keep producing the same artifacts.

Each case runs `devine run` in-process and compares the sha256 of every
artifact it writes (summary.json, series.csv, per_arrival.csv and, for
devine, trace.jsonl) with tests/golden_digests.json.  manifest.json is left
out because it carries wall-clock timestamps.

The `link-bound` regime (sparse substrate, heavy bandwidth demands) pins the
searches the default regime rarely makes: links that cannot be routed, and
routes that must detour around saturated links.

A change that alters behaviour on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from devine.cli import main
from devine.simulation import ALGORITHMS

GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
SEEDS = (1, 2, 3)
DURATION = 100
CONFIGS = {
    "default": {"generator": {"server_count": 30}},
    "link-bound": {
        "generator": {
            "server_count": 30,
            "link_probability": 0.1,
            "bandwidth_demand": [25.0, 25.0],
            "arrival_rate": 0.5,
        }
    },
}
ARTIFACTS = ("summary.json", "series.csv", "per_arrival.csv", "trace.jsonl")
CASES = [
    f"{config}/{algorithm}/{seed}"
    for config in CONFIGS
    for algorithm in ALGORITHMS
    for seed in SEEDS
]


def artifact_digests(case: str, out_dir: Path) -> dict[str, str]:
    """Run one case through the CLI into out_dir; sha256 of each artifact."""
    config, algorithm, seed = case.split("/")
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(CONFIGS[config]))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([
            "run", "--config", str(config_path), "--algorithm", algorithm,
            "--seed", seed, "--duration", str(DURATION), "--out-dir", str(out_dir),
        ])
    if code != 0:
        raise RuntimeError(f"devine run exited {code} on {case}")
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
        if (out_dir / name).exists()
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_artifacts_match_golden_digests(case, golden, tmp_path):
    assert artifact_digests(case, tmp_path) == golden[case]


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    digests = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            digests[case] = artifact_digests(case, Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} cases to {GOLDEN}", file=sys.stderr)
