"""Contract of ``run_bench.py``'s section registry and trajectory writer.

Cheap: no collector runs.  The registry must name exactly the sections
the committed ``BENCH_throughput.json`` carries, and the writer must keep
section values at the top level only, appending history records that hold
the git SHA, the interpreter/NumPy versions and the pytest-benchmark
results — nothing else, including in records written by older versions.
"""

import json
from pathlib import Path

from benchmarks import run_bench

RECORD_KEYS = {"sha", "python", "numpy", "results"}


def test_registry_matches_committed_trajectory_sections():
    committed = json.loads((run_bench.REPO_ROOT / "BENCH_throughput.json").read_text())
    assert set(run_bench.SECTIONS) == set(committed) - {"latest", "history"}
    assert all(callable(collect) for collect in run_bench.SECTIONS.values())


def test_writer_appends_slim_records_and_keeps_sections_top_level(tmp_path: Path):
    output = tmp_path / "bench.json"
    first = run_bench.update_trajectory(
        output, {"bench_a": {"mean_s": 1.0}}, {"alpha": {"cycles": 10}}
    )
    second = run_bench.update_trajectory(
        output, {"bench_a": {"mean_s": 2.0}}, {"alpha": {"cycles": 11}}
    )
    assert len(first["history"]) == 1
    on_disk = json.loads(output.read_text())
    assert on_disk == second
    assert set(on_disk) == {"latest", "alpha", "history"}
    assert on_disk["latest"] == {"bench_a": {"mean_s": 2.0}}
    assert on_disk["alpha"] == {"cycles": 11}
    assert [record["results"] for record in on_disk["history"]] == [
        {"bench_a": {"mean_s": 1.0}},
        {"bench_a": {"mean_s": 2.0}},
    ]
    for record in on_disk["history"]:
        assert set(record) == RECORD_KEYS
        assert isinstance(record["sha"], str) and record["sha"]


def test_old_records_with_section_copies_are_trimmed(tmp_path: Path):
    output = tmp_path / "bench.json"
    old_record = {
        "machine": "vm",
        "python": "3.11.7",
        "results": {"bench_a": {"mean_s": 1.0}},
        "soc_offload": {"1pe": {"cycles": 5053}},
        "serving": {"ideal-digital": {}},
    }
    output.write_text(json.dumps({"latest": {}, "history": [old_record]}))
    payload = run_bench.update_trajectory(output, {}, {"alpha": {}})
    trimmed, appended = payload["history"]
    assert trimmed == {"python": "3.11.7", "results": {"bench_a": {"mean_s": 1.0}}}
    assert set(appended) == RECORD_KEYS


def test_unreadable_trajectory_is_replaced(tmp_path: Path):
    output = tmp_path / "bench.json"
    output.write_text("{not json")
    payload = run_bench.update_trajectory(output, {}, {"alpha": {}})
    assert len(payload["history"]) == 1


def test_sha_is_unknown_outside_a_checkout(tmp_path: Path, monkeypatch):
    monkeypatch.setattr(run_bench, "REPO_ROOT", tmp_path)
    assert run_bench.git_sha() == "unknown"
