"""Fast self-test of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload at a tiny length, traced and untraced, and checks that each
metric BENCHMARK.json names is emitted with its unit; shows that the
correctness gate counts a corrupted checkpoint as a failed operation; and
checks that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = BENCH_DIR / "runs"


@pytest.fixture
def workdir():
    RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS) as path:
        yield Path(path)


def tiny(workload: harness.Workload) -> harness.Workload:
    """The same mode and sizes on 40 documents for a handful of episodes."""
    return dataclasses.replace(
        workload, spec=dataclasses.replace(workload.spec, docs=40), episodes=5
    )


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, workdir):
    outcome = harness.run(tiny(harness.WORKLOADS[name]), 1, 0.01, trace, workdir)
    result = outcome.result
    assert result["correct"] and result["failed"] == 0, outcome.info["faults"]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert len(outcome.info["checkpoint_sha256"]) == 64


def test_every_site_exists():
    missing = [s.name for s in harness.SITES if s.attr not in s.owner.__dict__]
    assert missing == []


def _corrupt_first_value(path: Path) -> None:
    """Change the last digit of the first number in the actor amplitude block."""
    lines = path.read_text().splitlines()
    row = lines.index(next(l for l in lines if l.startswith("[actor.amplitudes"))) + 1
    first, rest = lines[row].split(" ", 1)
    last = "1" if first[-1] != "1" else "2"
    lines[row] = f"{first[:-1]}{last} {rest}"
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("damage", ["digit", "truncate"])
def test_corrupted_checkpoint_counts_as_failed(damage, workdir):
    workload = tiny(harness.WORKLOADS["toy-bandit"])
    corpus, _ = harness.setup_corpus(workload, 1, workdir / "corpus.tsv")
    model, _ = harness.train_model(workload, corpus, 1)
    path = workdir / "checkpoint.txt"
    harness.save_model(model, path)
    gate = harness.Gate()

    _, faults = harness.load_model(path, model, corpus)
    gate.record("checkpoint", faults)
    assert (gate.attempted, gate.failed) == (1, 0)

    if damage == "digit":
        _corrupt_first_value(path)
    else:
        path.write_text("\n".join(path.read_text().splitlines()[:-3]) + "\n")
    _, faults = harness.load_model(path, model, corpus)
    gate.record("checkpoint", faults)
    assert (gate.attempted, gate.failed) == (2, 1)


def test_invalid_parameters_are_faults(workdir):
    workload = tiny(harness.WORKLOADS["toy-bandit"])
    corpus, _ = harness.setup_corpus(workload, 1, workdir / "corpus.tsv")
    model, _ = harness.train_model(workload, corpus, 1)
    assert harness.param_faults(model) == []
    model.params.table.amplitudes[0, 1] = 1e-3
    model.critic_table.amplitudes[2, 0] = -0.5
    model.params.global_rep.factors[0, 0, 0] = np.nan
    assert harness.param_faults(model) == [
        "non-finite parameter",
        "actor row not unit length",
        "factor row not unit length",
        "padding row moved",
        "critic amplitude row negative or not unit length",
    ]


def test_refuses_to_run_without_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(BENCH_DIR, workdir / "perfbench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    command = SPEC["command"] + ["--workload", "toy-bandit", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=workdir, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

