"""``tools/paired.py`` with ``subprocess.run`` stubbed: every command is
recorded, a perfbench run appends a minimal record and a pytest run writes a
junit file."""

import importlib.util
import json
import os
import subprocess
import tempfile
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "paired.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("paired", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Stub:
    """``subprocess.run`` that records (argv, cwd, env) and fakes each step.
    The step that ``fail(side, step, k)`` picks exits 1, or, with
    ``incorrect``, writes a record whose ``correct`` is false."""

    def __init__(self, change, fail=lambda side, step, k: False, incorrect=False):
        self.change, self.fail, self.incorrect = change, fail, incorrect
        self.calls, self.parent = [], None

    def side(self, cwd):
        return {self.change: "change", self.parent: "parent"}[Path(cwd)]

    def __call__(self, argv, cwd=None, env=None, **kwargs):
        self.calls.append((list(argv), Path(cwd), env))
        code = 0
        if argv[:3] == ["git", "worktree", "add"]:
            self.parent = Path(argv[4])
        elif argv[1] == "perfbench/run.py":
            args = dict(zip(argv[2::2], argv[3::2]))
            k = int(args["--seed"])
            failed = self.fail(self.side(cwd), args["--workload"], k)
            code = int(failed and not self.incorrect)
            with open(args["--results"], "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": args["--workload"], "seed": k,
                                     "correct": not failed, "failures": ["x"]}) + "\n")
        elif argv[1:3] == ["-m", "pytest"]:
            junit = Path(argv[argv.index("--junitxml") + 1])
            code = int(self.fail(self.side(cwd), "pytest", int(junit.stem.split("-")[1])))
            junit.write_text("<testsuites/>")
        elif argv[1] == "tools/bench_file.py":
            assert all(Path(a).is_file() for a in argv[2:-2] if a.startswith("/"))
        return subprocess.CompletedProcess(argv, code, "", "boom\n" if code else "")


def run_tool(tmp_path, monkeypatch, pairs, **stub):
    tool = load_tool()
    fake = Stub(tool.CHANGE, **stub)
    monkeypatch.setattr(tool.subprocess, "run", fake)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    code = tool.main(["base", "--out", str(tmp_path / "BENCH.json"), "--pairs", str(pairs),
                      "--seconds", "1"])
    return tool, fake, code


def steps(fake):
    """(side, step, seed) of each pass step, in order; a pytest step's seed is
    read from its junit file's name."""
    out = []
    for argv, cwd, env in fake.calls:
        if argv[1] == "perfbench/run.py":
            out.append((fake.side(cwd), argv[3], int(argv[5])))
        elif argv[1:3] == ["-m", "pytest"]:
            junit = Path(argv[argv.index("--junitxml") + 1]).stem
            out.append((fake.side(cwd), "pytest", int(junit.split("-")[1])))
    return out


def test_sides_alternate_and_each_pair_shares_its_seed(tmp_path, monkeypatch):
    tool, fake, code = run_tool(tmp_path, monkeypatch, pairs=4)
    assert code == 0
    want = [(side, step, k) for k in range(1, 5)
            for side in (("parent", "change") if k % 2 else ("change", "parent"))
            for step in (*tool.WORKLOADS, "pytest")]
    assert steps(fake) == want


def test_each_step_runs_in_its_sides_root(tmp_path, monkeypatch):
    tool, fake, _ = run_tool(tmp_path, monkeypatch, pairs=2)
    assert fake.calls[0][0] == ["git", "worktree", "add", "--detach", str(fake.parent),
                                "base"]
    assert fake.parent.parent.parent == tmp_path  # in the temporary directory
    for argv, cwd, env in fake.calls[1:-2]:
        assert cwd in (fake.parent, tool.CHANGE), argv
        if argv[1:3] == ["-m", "pytest"]:
            assert env["PYTHONPATH"].split(os.pathsep)[0] == str(cwd / "src")
    assert fake.calls[-2][0] == ["git", "worktree", "remove", "--force", str(fake.parent)]


def test_bench_file_receives_every_file(tmp_path, monkeypatch):
    tool, fake, _ = run_tool(tmp_path, monkeypatch, pairs=3)
    argv, cwd, _ = fake.calls[-1]
    work = fake.parent.parent
    assert cwd == tool.CHANGE and argv[1] == "tools/bench_file.py"
    assert argv[2:] == [
        "--parent", str(work / "parent.jsonl"), *(str(work / f"parent-{k}.xml")
                                                   for k in (1, 2, 3)),
        "--change", str(work / "change.jsonl"), *(str(work / f"change-{k}.xml")
                                                   for k in (1, 2, 3)),
        "--out", str(tmp_path / "BENCH.json")]
    assert not work.exists()  # the records lived in the removed temporary directory


@pytest.mark.parametrize("side, step, k, incorrect, named", [
    ("parent", "finetune", 2, False,
     "parent side, pair 2, perfbench/run.py --workload finetune exited 1\n  boom"),
    ("change", "sweep", 1, True,
     "change side, pair 1, perfbench/run.py --workload sweep: its record is not correct"),
    ("change", "pytest", 2, False,
     "change side, pair 2, pytest tests/test_acceptance.py exited 1\n  boom"),
])
def test_a_failed_step_is_named_and_the_worktree_removed(tmp_path, monkeypatch, capsys,
                                                          side, step, k, incorrect, named):
    tool, fake, code = run_tool(tmp_path, monkeypatch, pairs=3, incorrect=incorrect,
                                fail=lambda *at: at == (side, step, k))
    assert code == 1
    assert named in capsys.readouterr().err
    assert steps(fake)[-1] == (side, step, k)  # nothing ran after it
    assert fake.calls[-1][0] == ["git", "worktree", "remove", "--force", str(fake.parent)]
