"""The benchmark's own test (not part of the repository's test suite).

Run from the checkout root::

    python3 -m pytest -q perfbench/selftest.py

Shrunk runs (1,000 to 2,500 points, ``--seconds 1``) of every workload
must print every metric, and a deliberately corrupted answer must be
counted as a failed operation and fail the run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: End-to-end metric names the report lines print, JSON-gated or not.
REPORTED_METRICS = (
    "setup_s", "query_p50_ms", "query_p95_ms", "queries_per_s",
    "update_p50_ms", "update_p95_ms", "failed_frac", "peak_rss_mb",
)

#: Dataset sizes of the shrunk runs.
SHRUNK_N = {"index_batch": 2_500, "oneshot": 2_500, "service_mixed": 1_000}


def shrunk_run(capsys, monkeypatch, workload: str, trace: int = 0):
    monkeypatch.setitem(
        workloads.WORKLOADS, workload,
        dataclasses.replace(workloads.WORKLOADS[workload], n=SHRUNK_N[workload]),
    )
    code = run.main([
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace),
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    return code, result, lines[:-1]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_shrunk_run_prints_every_metric(capsys, monkeypatch, workload, trace):
    code, result, report = shrunk_run(capsys, monkeypatch, workload, trace)
    assert code == 0, report
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = (
        [name for name, _, _ in layers.PER_LAYER] if trace
        else [name for name, _ in run.END_TO_END]
    )
    assert list(result["metrics"]) == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    printed = {line.split()[1] for line in report if " = " in line}
    assert set(REPORTED_METRICS) <= printed
    assert any(line.startswith("# provenance ") for line in report)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload == "index_batch":
        assert result["metrics"]["index.self_frac"]["value"] >= 0.9
    elif workload == "oneshot":
        covered = sum(
            result["metrics"][f"{layer}.self_frac"]["value"]
            for layer in ("transform", "skyline")
        )
        assert covered >= 0.9
    else:
        assert result["metrics"]["wal.append_ms"]["value"] > 0
        assert result["metrics"]["svc.window_size"]["value"] >= 1


def _drop_last_row(result):
    return dataclasses.replace(
        result, indices=result.indices[:-1], points=result.points[:-1]
    )


def test_corrupted_index_batch_answer_is_a_failure(capsys, monkeypatch):
    from repro.core.session import DatasetSession

    original = DatasetSession.run_batch
    calls = []

    def corrupt(self, specs, method="auto"):
        results = original(self, specs, method=method)
        if method == "cutting" and not calls:
            calls.append(1)
            results[0] = _drop_last_row(results[0])
        return results

    monkeypatch.setattr(DatasetSession, "run_batch", corrupt)
    code, result, _ = shrunk_run(capsys, monkeypatch, "index_batch")
    assert code == 1 and result["correct"] is False and result["failed"] == 1


def test_corrupted_oneshot_answer_is_a_failure(capsys, monkeypatch):
    from repro.core.session import DatasetSession

    original = DatasetSession.run
    calls = []

    def corrupt(self, ratios=None, method="auto"):
        result = original(self, ratios, method=method)
        if not calls:
            calls.append(1)
            result = _drop_last_row(result)
        return result

    monkeypatch.setattr(DatasetSession, "run", corrupt)
    code, result, _ = shrunk_run(capsys, monkeypatch, "oneshot")
    assert code == 1 and result["correct"] is False and result["failed"] == 1


def test_corrupted_service_answer_is_a_failure(capsys, monkeypatch):
    from repro.service.netclient import EclipseClient

    original = EclipseClient.query_batch
    probe = workloads.setup_specs(
        workloads.WORKLOADS["service_mixed"], workloads.PROBE_SPECS
    )
    calls = []

    def corrupt(self, specs, deadline=None):
        results = original(self, specs, deadline=deadline)
        if list(specs) != probe and not calls:
            calls.append(1)
            first = results[0]
            results[0] = dataclasses.replace(
                first, gids=np.asarray(first.gids)[::-1].copy()
            ) if len(first) > 1 else dataclasses.replace(
                first, gids=np.asarray(first.gids) + 1
            )
        return results

    monkeypatch.setattr(EclipseClient, "query_batch", corrupt)
    code, result, _ = shrunk_run(capsys, monkeypatch, "service_mixed")
    assert code == 1 and result["correct"] is False and result["failed"] == 1


def test_a_query_split_over_two_windows_is_checked_per_result():
    from repro.core.session import DatasetSession
    from repro.service.supervisor import ServiceResult, UpdateAck

    rng = np.random.default_rng(3)
    base = workloads.points("anti", rng, 300, 3)
    inserts = workloads.points("anti", rng, 10, 3)
    specs = workloads.setup_specs(workloads.WORKLOADS["service_mixed"], 2)

    def answer(data, gids, spec, seq):
        (result,) = DatasetSession(data).run_batch([spec], method="transform")
        want = gids[result.indices]
        order = np.argsort(want)
        return ServiceResult(want[order], result.points[order], "transform", seq)

    # The update deletes rows of the second spec's answer at seq 0, so the
    # answers at seq 0 and seq 1 differ.
    gids = np.arange(300)
    deletes = answer(base, gids, specs[1], 0).gids[:10]
    keep = ~np.isin(gids, deletes)
    after_gids = np.concatenate([gids[keep], np.arange(300, 310)])
    after = np.concatenate([base[keep], inserts])
    update = workloads.Record(
        workloads.Op("update", inserts=inserts, deletes=deletes),
        ack=UpdateAck(1, np.arange(300, 310), deletes.size),
    )

    def check(results):
        query = workloads.Record(workloads.Op("query", specs=specs), results=results)
        outcome = workloads.Outcome()
        workloads._check_service(outcome, base, [update, query])
        return outcome

    split = [answer(base, gids, specs[0], 0), answer(after, after_gids, specs[1], 1)]
    assert check(split).failed == 0
    mislabelled = [split[0], dataclasses.replace(split[1], seq=0)]
    assert check(mislabelled).failed == 1


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".state", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oneshot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_partition_splits_parallel_shards_and_sums_to_the_request():
    def span(id, parent, name, start, end, pid, tier):
        return spans.Span(id, parent, name, start, end, ("k",), None, pid, tier)

    root = span(1, 0, "bench.request", 0, 100, 1, 0)
    linked = [
        span(2, 1, "net.client_query", 5, 95, 1, 0),
        span(1, 0, "svc.query", 10, 90, 2, 1),
        span(1, 0, "session.run_batch", 20, 60, 3, 2),  # shard A
        span(2, 1, "index.tree", 30, 50, 3, 2),
        span(1, 0, "session.run_batch", 20, 40, 4, 2),  # shard B
    ]
    parts = spans.partition(root, linked)
    assert sum(parts.values()) == pytest.approx(100)
    assert parts["bench"] == pytest.approx(10)
    assert parts["net"] == pytest.approx(10)
    # 20-30: both shards in session; 30-40: A in index, B in session;
    # 40-50: A in index alone; 50-60: A in session alone.
    assert parts["session"] == pytest.approx(10 + 5 + 10)
    assert parts["index"] == pytest.approx(5 + 10)
    assert parts["svc"] == pytest.approx(10 + 30)
