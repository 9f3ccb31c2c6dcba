"""``tools/bench_file.py`` on hand-made perfbench records and junit files."""

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


@pytest.mark.parametrize("change_wall, sign_p", [
    ([0.5] * 10, 2 / 1024),  # the change wins all ten pairs
    ([1.5] * 10, 2 / 1024),  # the parent does: the test is two-sided
    ([0.5] * 9 + [1.0], 2 / 512),  # a tie is dropped, leaving 9 of 9
    ([0.5] * 9 + [1.5], 2 * 11 / 1024),  # 9 of 10: P(at most 1 of 10), twice
    ([1.0] * 10, 1.0),  # every pair ties
])
def test_sign_p_is_the_exact_two_sided_sign_test(tmp_path, capsys, change_wall, sign_p):
    parent = write(tmp_path / "p.jsonl", [record("pretrain", s, 1.0, "a") for s in range(10)])
    change = write(tmp_path / "c.jsonl",
                   [record("pretrain", s, w, "b") for s, w in enumerate(change_wall)])
    out = tmp_path / "BENCH.json"
    assert load_tool().main(["--parent", parent, "--change", change,
                             "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["pretrain"]["metrics"]
    assert metrics["wall_s"]["sign_p"] == sign_p
    # three rows, so the smallest p passes at 0.05 / 3
    assert metrics["wall_s"]["holm"] == (sign_p <= 0.05 / 3)
    assert metrics["accuracy"]["sign_p"] == metrics["failed_frac"]["sign_p"] == 1.0
    assert not metrics["accuracy"]["holm"] and not metrics["failed_frac"]["holm"]
    assert f"change won {sum(w < 1.0 for w in change_wall)} of 10  sign p {sign_p:.3g}  " \
           f"holm {'yes' if metrics['wall_s']['holm'] else 'no'}\n" in capsys.readouterr().out


def test_holm_steps_down_in_ascending_p():
    rows = [{"sign_p": p} for p in (0.01, 0.04, 0.03, 0.001, 0.02)]
    load_tool().holm(rows)
    # 0.001 <= 0.05/5 and 0.01 <= 0.05/4 pass; 0.02 > 0.05/3 stops the steps,
    # so 0.04, below 0.05 alone, does not pass either
    assert [r["holm"] for r in rows] == [True, False, False, True, False]


@pytest.mark.parametrize("pairs, passes", [(10, False), (11, True)])
def test_a_27_row_file_needs_11_pairs(pairs, passes):
    rows = [{"sign_p": load_tool().sign_p(pairs, 0)}] + [{"sign_p": 1.0}] * 26
    load_tool().holm(rows)
    assert rows[0]["holm"] == passes


@pytest.mark.parametrize("with_tier1, passes", [(False, True), (True, False)])
def test_holm_counts_the_tier1_rows_too(tmp_path, with_tier1, passes):
    # 7 wins and 3 ties: p = 2/128, at most 0.05/3 (three workload rows) but
    # above 0.05/6 (those and three tied tier1 rows)
    parent = [write(tmp_path / "p.jsonl", [record("pretrain", s, 1.0, "a") for s in range(10)])]
    change = [write(tmp_path / "c.jsonl", [record("pretrain", s, 0.5 if s < 7 else 1.0, "b")
                                           for s in range(10)])]
    if with_tier1:
        parent += [tier1_pass(tmp_path / f"p{k}.xml", 2.0) for k in range(10)]
        change += [tier1_pass(tmp_path / f"c{k}.xml", 2.0) for k in range(10)]
    out = tmp_path / "BENCH.json"
    assert load_tool().main(["--parent", *parent, "--change", *change,
                             "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    wall = bench["workloads"]["pretrain"]["metrics"]["wall_s"]
    assert (wall["sign_p"], wall["holm"]) == (2 / 128, passes)
    assert all(row["sign_p"] == 1.0 and not row["holm"]
               for row in bench.get("tier1", {}).values())


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



def junit(path, *cases):
    """A pytest junit file of (classname, name, seconds) testcases."""
    body = "".join(f'<testcase classname="{c}" name="{n}" time="{t}" />' for c, n, t in cases)
    path.write_text('<?xml version="1.0" encoding="utf-8"?><testsuites>'
                    f'<testsuite name="pytest">{body}</testsuite></testsuites>')
    return str(path)


def tier1_pass(path, criterion, ranking=0.5):
    """One Tier-1 pass: two acceptance testcases, one in a class, and one other."""
    return junit(path, ("tests.test_acceptance", "test_criterion", criterion),
                 ("tests.test_acceptance.TestRanking", "test_rank", ranking),
                 ("tests.test_cli", "test_other", 1.0))


def test_tier1_rows_pair_the_kth_junit_files(tmp_path, capsys):
    parent = [write(tmp_path / "p.jsonl", [record("pretrain", 1, 1.0, "a")]),
              tier1_pass(tmp_path / "p1.xml", 2.0), tier1_pass(tmp_path / "p2.xml", 4.0)]
    change = [write(tmp_path / "c.jsonl", [record("pretrain", 1, 1.0, "b")]),
              tier1_pass(tmp_path / "c1.xml", 3.0), tier1_pass(tmp_path / "c2.xml", 2.0)]
    out = tmp_path / "BENCH.json"
    assert load_tool().main(["--parent", *parent, "--change", *change,
                             "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["tier1"]
    assert sorted(rows) == ["TestRanking::test_rank", "test_criterion", "total"]
    row = rows["test_criterion"]
    assert (row["unit"], row["better"]) == ("s", "lower")
    assert row["ratios"] == [1.5, 0.5]  # the k-th file of each side, not sorted times
    assert row["median_ratio"] == 1.0 and row["ratio_ci"] == [0.5, 1.5]
    assert (row["change_won"], row["parent_won"]) == (1, 1)
    assert row["parent"] == {"median": 3.0, "q1": 1.5, "q3": 4.5, "runs": 2}
    assert row["change"]["median"] == 2.5
    assert rows["total"]["ratios"] == [4.5 / 3.5, 3.5 / 5.5]  # every testcase's time
    assert rows["TestRanking::test_rank"]["ratios"] == [1.0, 1.0]
    assert ("tier1     test_criterion         change 2.5  parent 3  median ratio 1 "
            "[0.5, 1.5]  change won 1 of 2  sign p 1  holm no\n") in capsys.readouterr().out


CRITERION = ("tests.test_acceptance", "test_criterion", 1.0)


@pytest.mark.parametrize("change_xml, message", [
    ([[("tests.test_cli", "test_other", 1.0)]], "c0.xml has no testcase test_criterion"),
    ([[CRITERION]] * 2, "2 junit files of the change do not pair with 1 of the parent"),
])
def test_unpaired_junit_files_exit_2(tmp_path, capsys, change_xml, message):
    parent = [write(tmp_path / "p.jsonl", [record("pretrain", 1, 1.0, "a")]),
              junit(tmp_path / "p.xml", CRITERION)]
    change = [write(tmp_path / "c.jsonl", [record("pretrain", 1, 1.0, "b")]),
              *(junit(tmp_path / f"c{k}.xml", *cases) for k, cases in enumerate(change_xml))]
    assert load_tool().main(["--parent", *parent, "--change", *change,
                             "--out", str(tmp_path / "B.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "B.json").exists()


def test_unparsable_junit_file_exits_2(tmp_path, capsys):
    change = [write(tmp_path / "c.jsonl", [record("pretrain", 1, 1.0, "b")]),
              tmp_path / "c.xml"]
    change[1].write_text("<testsuites><testsuite>")  # a pass cut short
    assert load_tool().main(["--change", *map(str, change),
                             "--out", str(tmp_path / "B.json")]) == 2
    assert "c.xml is not a junit file: no element found" in capsys.readouterr().err
    assert not (tmp_path / "B.json").exists()
