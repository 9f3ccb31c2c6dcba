"""``tools/bench_file.py`` on hand-made perfbench records."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_file.py"
MACHINE = {"nproc": 2, "cpu_model": "test cpu", "python": "3.11", "numpy": "2"}


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_file", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(workload, seed, wall_s, commit, trace=0, passes=3, **machine):
    return {"workload": workload, "seed": seed, "trace": trace,
            "pass_seconds": [wall_s] * passes,
            "machine": {**MACHINE, "git_commit": commit, "source_sha256": commit * 2,
                        "workload_seed": seed, **machine},
            "metrics": {"wall_s": {"value": wall_s, "unit": "s", "better": "lower",
                                   "bound": 0.25},
                        "accuracy": {"value": 0.9, "unit": "fraction",
                                     "better": "higher", "bound": 0.1},
                        "failed_frac": {"value": 0.0, "unit": "fraction",
                                        "better": "lower", "bound": 0.0}}}


def write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def test_pairs_in_order_and_reports_ratios(tmp_path, capsys):
    parent = write(tmp_path / "p.jsonl",
                   [record("finetune", s, w, "a") for s, w in [(1, 4.0), (2, 3.0), (3, 5.0)]]
                   + [record("finetune", 9, 1.0, "a", trace=1)])
    change = write(tmp_path / "c.jsonl",
                   [record("finetune", s, w, "b") for s, w in [(1, 2.0), (2, 3.0), (3, 4.0)]])
    out = tmp_path / "BENCH.json"
    assert load_tool().main(["--parent", parent, "--change", change,
                             "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["machine"] == MACHINE
    assert bench["parent"] == {"git_commit": "a", "source_sha256": "aa"}
    assert bench["change"] == {"git_commit": "b", "source_sha256": "bb"}
    entry = bench["workloads"]["finetune"]
    assert entry["seeds"] == [1, 2, 3]
    wall = entry["metrics"]["wall_s"]
    assert wall["ratios"] == [0.5, 1.0, 0.8]
    assert wall["median_ratio"] == 0.8 and wall["ratio_ci"] == [0.5, 1.0]
    assert (wall["change_won"], wall["parent_won"]) == (2, 0)
    assert wall["parent"]["median"] == 4.0 and wall["change"]["median"] == 3.0
    assert (wall["parent"]["runs"], wall["parent"]["passes"]) == (3, 9)
    assert entry["metrics"]["accuracy"]["change_won"] == 0
    failed = entry["metrics"]["failed_frac"]
    assert failed["ratios"] == [None] * 3 and failed["median_ratio"] is None
    printed = capsys.readouterr().out
    assert "median ratio 0.8 [0.5, 1]  change won 2 of 3" in printed
    assert "median ratio nan [nan, nan]" in printed


OFFSETS = [-0.05, 0.05, -0.04, 0.04, -0.03, 0.03, -0.02, 0.02, -0.01, 0.01]


@pytest.mark.parametrize("centre, metric, contains_one", [
    (1.0, "wall_s", True),  # ten pairs at 1.00 +- 0.05
    (1.2, "wall_s", False),  # ten pairs at 1.20 +- 0.05
    (1.0, "failed_frac", None),  # every ratio null: no interval
])
def test_ratio_ci_is_a_bootstrap_interval_of_the_median(tmp_path, centre, metric,
                                                       contains_one):
    parent = write(tmp_path / "p.jsonl",
                   [record("pretrain", s, 1.0, "a") for s in range(10)])
    change = write(tmp_path / "c.jsonl",
                   [record("pretrain", s, centre + o, "b") for s, o in enumerate(OFFSETS)])
    out = tmp_path / "BENCH.json"
    assert load_tool().main(["--parent", parent, "--change", change,
                             "--out", str(out)]) == 0
    ci = json.loads(out.read_text())["workloads"]["pretrain"]["metrics"][metric]["ratio_ci"]
    if contains_one is None:
        assert ci is None
    else:
        low, high = ci
        assert centre - 0.05 < low < high < centre + 0.05
        assert (low <= 1.0 <= high) == contains_one


@pytest.mark.parametrize("parent_records, message", [
    ([record("pretrain", 2, 1.0, "a")], "do not pair"),
    ([record("pretrain", 1, 1.0, "a", nproc=8)], "different machines"),
])
def test_unpaired_or_mixed_records_exit_2(tmp_path, capsys, parent_records, message):
    parent = write(tmp_path / "p.jsonl", parent_records)
    change = write(tmp_path / "c.jsonl", [record("pretrain", 1, 1.0, "b")])
    assert load_tool().main(["--parent", parent, "--change", change,
                             "--out", str(tmp_path / "B.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "B.json").exists()


def test_traced_records_alone(tmp_path):
    change = write(tmp_path / "c.jsonl", [record("sweep", 0, 9.0, "b", trace=1)])
    out = tmp_path / "B.json"
    assert load_tool().main(["--change", change, "--traced", "--out", str(out)]) == 0
    wall = json.loads(out.read_text())["workloads"]["sweep"]["metrics"]["wall_s"]
    assert wall["change"] == {"median": 9.0, "q1": 9.0, "q3": 9.0, "runs": 1, "passes": 3}
    assert "parent" not in wall
