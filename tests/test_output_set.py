"""``tools/output_set.py``: its table of cases and its runner on small tables."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_set.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_set", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reads(case) -> list[str]:
    """The files a row's command reads: a checkpoint, a CSV task's path, a
    config file, a noise file, and the JSON file its own input is made from."""
    args, found = case.args, []
    for flag, value in zip(args, args[1:]):
        key, _, text = value.partition("=")
        if flag == "--config":
            found.append(value)
        elif flag == "--set" and key == "checkpoint":
            found.append(text)
        elif flag == "--set" and key in ("task.source", "task.target") and '"path"' in text:
            found.append(json.loads(text)["path"])
    if args[0] == "inspect-noise":
        found.append(args[1])
    if case.input and len(case.input) == 4:
        found.append(case.input[1])
    return found


def test_names_are_unique_and_only_error_rows_expect_a_failure():
    cases = load_tool().CASES
    assert len({case.name for case in cases}) == len(cases)
    for case in cases:
        assert (case.exit != 0) == case.name.startswith("error-"), case.name


def test_every_input_comes_from_an_earlier_row_or_the_rows_own_file():
    earlier = set()
    for case in load_tool().CASES:
        own = case.input[0] if case.input else None
        found = reads(case)
        for path in found:
            assert path == own or path.split("/")[0] in earlier, (case.name, path)
        assert own is None or own in found, f"{case.name} does not read {own}"
        earlier.add(case.name)


def test_the_out_rule():
    tool = load_tool()
    rows = {case.name: tool.python_args(case) for case in tool.CASES}
    assert rows["pretrain"] == ["-m", "pactune.cli", "pretrain", "--out", "pretrain"]
    assert "--out" not in rows["gradcheck"] + rows["error-surrogate-out-dir"]
    assert rows["error-long-out-dir"].count("--out") == 1
    assert rows["config"][0] == "-c"


def files(out: Path, name: str) -> list[str]:
    return [(out / f"{name}.{kind}").read_text() for kind in ("stdout", "stderr", "exit")]


def test_a_wrong_expected_exit_is_named_and_the_set_is_complete(
        tmp_path, monkeypatch, capsys):
    tool = load_tool()
    args = ["pretrain", "--set", "pretrain.batch_size=0"]
    monkeypatch.setattr(tool, "CASES", [tool.Case("error-a", 3, args),
                                        tool.Case("error-b", 2, args)])
    assert tool.main([str(tmp_path / "set")]) == 1
    err = capsys.readouterr().err
    assert err == "output_set: unexpected exit code in error-a\n"
    for name in ("error-a", "error-b"):
        stdout, stderr, code = files(tmp_path / "set", name)
        assert (stdout, code) == ("", "2\n")
        assert stderr.startswith("config error:") and stderr.count("\n") == 1


@pytest.mark.parametrize("source", ["missing.json", "not-json.json", "list.json"])
def test_an_input_that_cannot_be_made_is_exit_1(tmp_path, monkeypatch, source):
    tool = load_tool()
    monkeypatch.setattr(tool, "CASES", [
        tool.Case("inputs", 0, ["-c", "pass"], ("not-json.json", "{")),
        tool.Case("more-inputs", 0, ["-c", "pass"], ("list.json", '["a list"]')),
        tool.Case("error-edit", 1, ["pretrain"], ("copy.json", source, ("params", 0), 1.0)),
        tool.Case("after", 0, ["-c", "pass"])])
    out = tmp_path / "set"
    assert tool.main([str(out)]) == 0
    stdout, stderr, code = files(out, "error-edit")
    assert (stdout, code) == ("", "1\n")
    assert stderr.startswith("input copy.json: ") and stderr.count("\n") == 1
    assert not (out / "copy.json").exists() and not (out / "error-edit").exists()
    assert files(out, "after") == ["", "", "0\n"]


def test_an_existing_out_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        load_tool().main([str(tmp_path)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"{tmp_path} exists")
    assert list(tmp_path.iterdir()) == []
