"""Smoke test of the e2e reference benchmark.

Collected by the existing CI step ``pytest benchmarks/ --benchmark-disable``
(no workflow edit).  It runs the real runner on three slices per
workload and checks names, units, correctness, span closure, the layer
separation the workloads were designed for, that exact counts repeat for
one seed and move with another, that the correctness oracle can fail,
and that ``BENCHMARK.json`` still says what ``catalog.py`` says.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import compare  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
SLICES = "3"


def run(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def results_of(stdout: str) -> dict[tuple[str, int], dict]:
    last = json.loads(stdout.strip().splitlines()[-1])
    return {(r["workload"], r["trace"]): r for r in last["results"]}


@pytest.fixture(scope="module")
def full(tmp_path_factory):
    """Everything, both passes, seed 1: ``(stdout, results, span file)``."""
    trace_out = tmp_path_factory.mktemp("e2e") / "trace.json"
    done = run("--slices", SLICES, "--trace-out", str(trace_out))
    assert done.returncode == 0, done.stderr
    return done.stdout, results_of(done.stdout), json.loads(trace_out.read_text())


def test_manifest_matches_catalog_and_contract():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert MANIFEST["command"][-1] == "benchmarks/e2e/run.py"
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in catalog.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == [
        (m.name, m.unit, m.better) for m in catalog.PER_LAYER
    ]
    sys.path.insert(0, str(ROOT / "src"))
    from rigs import RIGS

    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (name, rig.why) for name, rig in RIGS.items()
    ]
    # the limits the benchmark contract refuses a file over
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    units = [m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    assert 2 <= len(WORKLOADS) <= 8 and len(MANIFEST["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    setup = [m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])
    assert isinstance(MANIFEST["run_seconds"], int) and 1 <= MANIFEST["run_seconds"] <= 60
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_every_metric_is_printed_by_name_with_its_unit(full):
    stdout, results, _spans = full
    lines = {tuple(line.split()[:2]): line.split() for line in stdout.splitlines() if line[:1].isalpha()}
    for workload in WORKLOADS:
        for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
            fields = lines[(workload, metric["name"])]
            float(fields[2])
            assert fields[3] == metric["unit"]
        assert set(results[workload, 0]["metrics"]) == {m["name"] for m in MANIFEST["end_to_end"]}
        assert set(results[workload, 1]["metrics"]) == {m["name"] for m in MANIFEST["per_layer"]}


def test_nothing_fails_and_the_trace_closes(full):
    _stdout, results, _spans = full
    for (workload, trace), result in results.items():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, workload
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values()), workload
        else:
            assert result["metrics"]["trace.closure_error_share"]["value"] <= 0.01, workload


def test_workloads_separate_the_layers(full):
    _stdout, results, spans = full
    tables = {w: spans["workloads"][w]["aggregate"] for w in WORKLOADS}
    layer = {w: {k: v["value"] for k, v in results[w, 1]["metrics"].items()} for w in WORKLOADS}

    def share(workload: str, *prefixes: str) -> float:
        table = tables[workload]
        picked = sum(v["self_us"] for k, v in table.items() if k.startswith(prefixes))
        return picked / table["driver"]["total_us"]

    only_durable = ("durable.", "shm.", "relay.")
    for workload in WORKLOADS:
        present = any(k.startswith(only_durable) for k in tables[workload])
        assert present == (workload == "durable_burst"), workload
        assert any(k.startswith("fabric.") for k in tables[workload]) == (workload == "fanout_homo")

    # stream_hetero: conversion carries it
    stream = tables["stream_hetero"]
    assert max(stream, key=lambda k: stream[k]["self_us"]) == "decode"
    assert layer["stream_hetero"]["decode.converters_generated"] == 4
    # fanout_homo: no conversion at all; routing and delivery are most of the burst
    assert layer["fanout_homo"]["decode.converters_generated"] == 0
    assert share("fanout_homo", "fabric.", "channel", "pipe.", "handler", "health") > 0.5
    assert layer["fanout_homo"]["fabric.filter_pass_share"] == pytest.approx(0.10, abs=0.005)
    # durable_burst: the WAL rotated, every burst was acked once, nothing was re-sent
    assert layer["durable_burst"]["durable.segments_rotated"] > 0
    assert layer["durable_burst"]["durable.retransmits"] == 0
    assert layer["durable_burst"]["durable.duplicates_dropped"] == 0
    assert layer["durable_burst"]["durable.acks_per_burst"] == 1
    assert layer["durable_burst"]["relay.forward_calls_per_record"] == 1
    assert layer["durable_burst"]["durable.wal_bytes_per_payload_byte"] > 1
    # rtt_scalar: scalar entry points only, one send per record
    assert layer["rtt_scalar"]["decode.batch_group_size"] == 0
    assert layer["rtt_scalar"]["sockets.send_calls_per_record"] == 1
    assert layer["stream_hetero"]["decode.batch_group_size"] > 1


def test_exact_counts_repeat_for_a_seed_and_move_with_the_inputs(full):
    _stdout, first, _spans = full
    again = run("--trace", "1", "--slices", SLICES, "--seed", "1")
    other = run("--trace", "1", "--slices", SLICES, "--seed", "2")
    assert again.returncode == 0 and other.returncode == 0, again.stderr + other.stderr
    again, other = results_of(again.stdout), results_of(other.stdout)
    moved = 0
    for workload in WORKLOADS:
        a, b, c = (r[workload, 1]["metrics"] for r in (first, again, other))
        assert set(a) == set(b) == set(c)
        for name in catalog.EXACT:
            assert a[name]["value"] == b[name]["value"], (workload, name)
            moved += a[name]["value"] != c[name]["value"]
    assert moved, "another seed changed no exact count: the inputs do not depend on --seed"


def test_injected_faults_are_caught():
    done = run("--selftest-faults")
    assert done.returncode == 0, done.stdout + done.stderr
    outcome = json.loads(done.stdout.strip().splitlines()[-1])
    assert 0 < outcome["failed"] <= outcome["attempted"]


def test_compare_verdicts():
    quiet = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(quiet, [x * 1.02 for x in quiet], "lower", 0.10)[0] == "within-bound"
    assert compare.verdict(quiet, [x * 1.20 for x in quiet], "lower", 0.10)[0] == "regressed"
    assert compare.verdict(quiet, [x * 0.80 for x in quiet], "higher", 0.10)[0] == "regressed"
    noisy = [100.0, 130.0, 80.0, 120.0, 90.0]
    assert compare.verdict(noisy, [x * 1.05 for x in noisy], "lower", 0.10)[0] == "unresolved"
    assert compare.verdict(noisy, [x * 0.50 for x in noisy], "lower", 0.10)[0] == "within-bound"
    assert compare.verdict(noisy, [x * 2.00 for x in noisy], "lower", 0.10)[0] == "regressed"


def test_no_result_without_the_sources(tmp_path):
    """Where only BENCHMARK.json and the benchmark's own directory exist
    the command must fail without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("results", "__pycache__")
    )
    done = run(
        "--workload", "rtt_scalar", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "benchmarks" / "e2e" / "run.py",
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
