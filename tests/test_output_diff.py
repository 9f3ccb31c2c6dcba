"""``tools/output_diff.py`` on hand-made output sets and CHANGES.md diffs."""

import importlib.util
import io
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_diff.py"

CHANGES_DIFF = """\
diff --git a/CHANGES.md b/CHANGES.md
--- a/CHANGES.md
+++ b/CHANGES.md
@@ -1,2 +1,4 @@
 - An older entry.
-OUTPUT-DIFF: removed.stderr
 OUTPUT-DIFF: context.stderr
+- This entry.
+OUTPUT-DIFF: `run.stderr`, new-dir
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("output_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def output_set(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def run(monkeypatch, capsys, base, head, diff=CHANGES_DIFF):
    monkeypatch.setattr("sys.stdin", io.StringIO(diff))
    code = load_tool().main([str(base), str(head)])
    return code, capsys.readouterr().out


def test_declarations_come_from_added_lines_only():
    assert load_tool().declared(CHANGES_DIFF) == {"run.stderr", "new-dir"}


BASE = {"run.stderr": "old\n", "same/a.json": "{}\n", "context.stderr": "x\n",
        "removed.stderr": "y\n"}


@pytest.mark.parametrize("head, undeclared", [
    # a declared file and a declared directory only in the change
    ({"run.stderr": "new\n", "new-dir/a.json": "1\n"}, []),
    # a file whose bytes differ, declared only on an older line
    ({"run.stderr": "new\n", "context.stderr": "changed\n"}, ["context.stderr"]),
    # a file only in the change, and one only in the base (a line the diff removes)
    ({"extra.json": "{}\n"}, ["extra.json"]),
    ({"removed.stderr": None}, ["removed.stderr"]),
    # a nested file that differs
    ({"same/a.json": "[]\n"}, ["same/a.json"]),
])
def test_undeclared_difference_fails(tmp_path, monkeypatch, capsys, head, undeclared):
    base = output_set(tmp_path / "base", BASE)
    files = {name: text for name, text in {**BASE, **head}.items() if text is not None}
    code, out = run(monkeypatch, capsys, base, output_set(tmp_path / "head", files))
    assert code == (1 if undeclared else 0), out
    assert [line.split()[1] for line in out.splitlines()
            if line.startswith("UNDECLARED")] == undeclared, out


def test_identical_sets_pass_without_declarations(tmp_path, monkeypatch, capsys):
    base = output_set(tmp_path / "base", BASE)
    head = output_set(tmp_path / "head", BASE)
    assert run(monkeypatch, capsys, base, head, diff="")[0] == 0
