"""A seeded fuzzer for the CLI's exit contract (README, "Exit codes").

Each case takes one valid input, mutates it and runs ``cli.main`` in process
on a config with one-epoch phases. The inputs are the config file, a
``--set`` entry (a ``SCHEMA`` leaf or one of its fields), the two task CSV
files, a pretraining checkpoint and a noise file. The mutations are deleted
and duplicated keys (columns and rows in a CSV), swapped types, ``±1e308``,
``5e-324``, ``-0.0``, ``nan`` and ``inf``, truncation, an empty file and a
byte-order mark. The contract:

- exit 0 writes only finite numbers and raises no warning;
- exit 2 prints one ``config error:`` line that names a config key, or a
  file once, as ``cannot use <what> '<path>': <reason>``;
- exit 3 prints one line that names the task, the method or
  ``pretraining``, the seed, the epoch and the batch;
- a non-zero exit leaves no output directory;
- no other exit code, and no exception out of ``main``.

The seed and the case count are fixed; numbers are never mutated into large
integers, as a large valid count or size is a long run, not a fault.

Training regimes keep the same contract. A grid runs ``finetune`` with each
method, activation and weight-decay setting, and one learning rate raised to
a value whose updates overflow the weights, their outputs or an epoch
record's numbers, such as a KL. Drawn regimes, with their own fixed seed and
count, run ``pretrain``, ``finetune`` with each method and ``benchmark``, and
draw every knob at once: each phase's batch size against its rows (a 1-row
last batch, one batch per epoch, a batch larger than the set) and 1-3
epochs, the activation, a frozen or trainable first layer, fixed or running
K, fixed or auto gamma, ``l_pac_weight`` 0 or 1, ``noise_injection.sigma``
up to ``1e308``, and one learning rate at ``1e-3``, ``1e3`` or ``1e308``.

The command line is mutated too: an unknown flag, each flag on a command that
does not read it, a ``--seed`` or ``--workers`` that is not an integer >= its
floor, a missing command and a missing noise file. Each exits 2 with one
``config error:`` line that names the flag, key or argument.
"""

import csv
import io
import json
import math
import re
import warnings

import numpy as np
import pytest

from pactune import cli

SEED = 20231027
N_CASES = 400

BLOBS = {"generator": "blobs", "classes": 2, "dim": 3, "separation": 3.0, "class_std": 1.0,
         "noise_std": 0.0}
BASE = {
    "task": {"source": dict(BLOBS, n=120, seed=1),
             "target": dict(BLOBS, n=80, seed=2, rotation_degrees=20.0, shift=0.25),
             "n_shot": 20},
    "tasks": ["blobs-rotate"],
    "seeds": [1],
    "model": {"hidden": [4]},
    "pretrain": {"epochs": 1},
    "stage1": {"epochs": 1},
    "stage2": {"epochs": 1},
}
NUMBERS = [1e308, -1e308, 5e-324, -0.0, math.nan, math.inf, -math.inf]
SWAPS = ["", "x", "a/b", "a\u0000b", [], [2.5], {}, {"kind": "x"}, True, None, 0, 2.5]
CELLS = ["1e308", "-1e308", "5e-324", "-0.0", "nan", "inf", "-inf", "x", ""]
COMMANDS = ["generate-data", "pretrain", "finetune", "benchmark", "inspect-noise"]
METHODS = "pac-tuning|vanilla|noise-injection|pretraining"
DIVERGENCE = re.compile(rf"numeric divergence: \S+ ({METHODS}) seed \d+: "
                        rf"[^\n]* diverged at epoch \d+, batch \d+: [^\n]+\n")


class Obj(list):
    """A JSON object as its (key, value) pairs, so a key can appear twice."""


def _tree(doc):
    if isinstance(doc, dict):
        return Obj([k, _tree(v)] for k, v in doc.items())
    return [_tree(v) for v in doc] if isinstance(doc, list) else doc


def _dumps(node) -> str:
    if isinstance(node, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_dumps(v) for v in node) + "]"
    return json.dumps(node)


def _slots(node):
    """(container, index) of every value under ``node``; a pair's value is
    ``pair[1]``."""
    if isinstance(node, Obj):
        items = [(pair, 1) for pair in node]
    else:
        items = [(node, i) for i in range(len(node))] if isinstance(node, list) else []
    for container, i in items:
        yield container, i
        yield from _slots(container[i])


def _pick(rng, seq):
    return seq[rng.integers(len(seq))]


def _type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def _other_type(rng, value):
    return _pick(rng, [v for v in SWAPS if _type(v) != _type(value)])


def mutate_json(rng, text: str) -> str:
    root = [_tree(json.loads(text))]  # a slot for the root, so it can be swapped
    slots = list(_slots(root))
    objects = [c[i] for c, i in slots if isinstance(c[i], Obj) and c[i]]
    kind = _pick(rng, ["delete", "duplicate", "swap", "number", "number", "truncate",
                       "empty", "bom"])
    if kind == "delete":
        obj = _pick(rng, objects)
        del obj[rng.integers(len(obj))]
    elif kind == "duplicate":
        obj = _pick(rng, objects)
        i = rng.integers(len(obj))
        value = obj[i][1] if rng.random() < 0.5 else _pick(rng, NUMBERS + SWAPS)
        obj.insert(i + 1, [obj[i][0], value])
    elif kind == "swap":
        container, i = _pick(rng, slots)
        container[i] = _other_type(rng, container[i])
    elif kind == "number":
        numbers = [(c, i) for c, i in slots if _type(c[i]) == "number"] or slots
        container, i = _pick(rng, numbers)
        container[i] = _pick(rng, NUMBERS)
    elif kind == "truncate":
        return text[:rng.integers(len(text))]
    elif kind == "empty":
        return ""
    else:
        return "\ufeff" + text
    return _dumps(root[0])


def mutate_csv(rng, text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    kind = _pick(rng, ["cell", "column", "column", "delete", "duplicate", "truncate",
                       "empty", "bom"])
    col = rng.integers(len(rows[0]))
    if kind == "cell":
        rows[rng.integers(len(rows))][col] = _pick(rng, CELLS)
    elif kind == "column":  # large finite cells, whose sums may overflow
        for row in rows[1:]:
            row[col] = _pick(rng, CELLS[:4])
    elif kind == "delete":  # a header name, a row's cell, a whole row or columns
        row, what = 1 + rng.integers(len(rows) - 1), rng.integers(4)
        if what == 3:
            keep = rng.random(len(rows[0])) < 0.5
            rows = [[cell for cell, k in zip(r, keep) if k] for r in rows]
        elif what == 2:
            del rows[row]
        else:
            del rows[row * what][col]
    elif kind == "duplicate":
        row = _pick(rng, rows)
        row.insert(col, row[col])
    elif kind == "truncate":
        return text[:rng.integers(len(text))]
    elif kind == "empty":
        return ""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return ("\ufeff" if kind == "bom" else "") + out.getvalue()


def targets(config: dict):
    """(--set path, kind) of every leaf and of every field of an object leaf."""
    for leaf, (_, kind) in cli.SCHEMA.items():
        yield leaf, kind
        node = config
        for part in leaf.split("."):
            node = node[part]
        if isinstance(node, dict):
            yield from ((f"{leaf}.{field}", kind.fields[field]) for field in node)


def mutate_set(rng, config: dict) -> str:
    """One ``--set`` entry: a leaf or a field of an object leaf set to a
    mutated value, or an object section with one key deleted."""
    if rng.random() < 0.15:
        section = _pick(rng, [k for k, v in config.items() if isinstance(v, dict) and v])
        value = dict(config[section])
        del value[_pick(rng, sorted(value))]
        return f"{section}={json.dumps(value)}"
    path = _pick(rng, list(targets(config)))[0]
    return f"{path}={json.dumps(_pick(rng, NUMBERS + SWAPS))}"


CONFIG = cli._deep_merge(cli.DEFAULT_CONFIG, BASE)  # every key: each leaf is reachable
# every value of NUMBERS that a leaf's or a field's kind accepts, so each is run
EXTREMES = [(path, v) for path, kind in targets(CONFIG) for v in NUMBERS if kind.ok(v)]
# the command that reads a section's leaves; finetune reads the others
READER = {"task": "generate-data", "pretrain": "pretrain", "noise_injection": "benchmark"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The valid inputs: config, task CSVs, checkpoint, noise file."""
    root = tmp_path_factory.mktemp("inputs")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    base = ["--config", str(config), "--out", str(root)]
    checkpoint = root / "pretrained.json"
    assert cli.main(["generate-data", *base]) == cli.EXIT_OK
    assert cli.main(["pretrain", *base]) == cli.EXIT_OK
    assert cli.main(["finetune", *base, "--set",
                     f"checkpoint={json.dumps(str(checkpoint))}"]) == cli.EXIT_OK
    return {"config": config, "source": root / "source.csv", "target": root / "target.csv",
            "checkpoint": checkpoint,
            "noise": root / "blobs-rotate__pac-tuning__seed1__noise.json"}


def _argv(command: str, files: dict, sets: list[str], where) -> list[str]:
    if command == "finetune":
        sets = [f"checkpoint={json.dumps(str(files['checkpoint']))}", *sets]
    argv = [command, "--config", str(files["config"]), "--out", str(where / "out")]
    argv += [a for s in sets for a in ("--set", s)]
    return argv + [str(files["noise"])] if command == "inspect-noise" else argv


def make_case(rng, inputs: dict, where) -> tuple[list[str], dict]:
    """A case's argv, and the files it passes, one of them mutated unless
    the case mutates a ``--set`` entry."""
    files = dict(inputs)
    kind = _pick(rng, ["config", "set", "set", "csv", "checkpoint", "noise"])
    command = _pick(rng, COMMANDS)
    sets = []
    if kind == "csv":
        command = _pick(rng, COMMANDS[:3])
        side = _pick(rng, ["source", "target"])
        mutated = files[side] = where / f"{side}.csv"
        mutated.write_text(mutate_csv(rng, inputs[side].read_text()), encoding="utf-8")
        sets += [f'task.{s}={json.dumps({"generator": "csv", "path": str(files[s])})}'
                 for s in ("source", "target")]
    elif kind == "set":
        sets.append(mutate_set(rng, CONFIG))
    else:
        command = {"checkpoint": "finetune", "noise": "inspect-noise"}.get(kind, command)
        mutated = files[kind] = where / f"{kind}.json"
        mutated.write_text(mutate_json(rng, inputs[kind].read_text()), encoding="utf-8")
    return _argv(command, files, sets, where), files


def _non_finite(text: str, suffix: str) -> list[float]:
    """The numbers of an output file that are not finite."""
    numbers = []
    if suffix == ".csv":
        for cell in (c for row in csv.reader(io.StringIO(text)) for c in row):
            try:
                numbers.append(float(cell))
            except ValueError:  # a name: of a column, or of a group
                pass
    else:
        docs = [json.loads(line) for line in text.splitlines()] if suffix == ".jsonl" \
            else [json.loads(text)]
        numbers = [c[i] for c, i in _slots(_tree(docs)) if type(c[i]) is float]
    return [v for v in numbers if not math.isfinite(v)]


# how cli._read names a file: "config file", "checkpoint", "'task.source' file", ...
READ_FORM = re.compile(r"config error: cannot use (?:[a-z ]+|'task\.\w+' file) '([^']*)': ")


def _names_once(line: str, files: dict) -> bool:
    """The line names a file only in the reader's form, and then once; a line
    that names no file names a config key."""
    paths = [f"'{path}'" for path in map(str, files.values())]
    match = READ_FORM.match(line)
    if match:
        return not any(path in line[match.end():] for path in [f"'{match[1]}'", *paths])
    return not any(path in line for path in paths) and \
        any(key in cli.DEFAULT_CONFIG for key in re.findall(r"'(\w+)[.\[']", line))


def check_contract(argv: list[str], files: dict, where, capsys, named=None) -> int:
    """Run ``argv``, whose output directory is ``where / "out"``, check the
    exit contract and return the exit code. With ``named``, an exit-2 line
    must name it, a flag or an argument, in place of a key or a file."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    out, err = capsys.readouterr()
    out_dir = where / "out"
    assert not caught, (argv, [str(w.message) for w in caught])
    assert code == cli.EXIT_OK or not out_dir.exists(), (argv, code, err)
    if code == cli.EXIT_OK:
        assert err == "" and not re.search(r"\b(nan|inf)\b", out, re.I), (argv, out, err)
        for path in out_dir.rglob("*.*"):
            bad = _non_finite(path.read_text(encoding="utf-8"), path.suffix)
            assert not bad, (argv, path.name, bad)
    elif code == cli.EXIT_CONFIG:
        assert re.fullmatch(r"config error: [^\n]+\n", err), (argv, err)
        assert named in err if named else _names_once(err, files), (argv, err)
    else:
        assert code == cli.EXIT_DIVERGENCE, (argv, code, err)
        assert DIVERGENCE.fullmatch(err), (argv, err)
    return code


# the flags each command reads (README, "CLI"); benchmark reads them all
FLAGS = {"generate-data": ["--config", "--set", "--out"],
         "pretrain": ["--config", "--set", "--out"],
         "finetune": ["--config", "--set", "--out", "--seed"],
         "benchmark": ["--config", "--set", "--out", "--seed", "--workers"],
         "gradcheck": [],
         "inspect-noise": ["--config", "--set", "--out"]}
# a value that the commands reading the flag take
VALUE = {"--config": "{config}", "--set": "stage1.epochs=1", "--out": "{out}",
         "--seed": "3", "--workers": "2"}
# (command, what follows its valid argv, what the error line names); with no
# command, the whole argv
ARGV_CASES = [
    *[(command, [flag, VALUE[flag]], flag) for command, reads in FLAGS.items()
      for flag in FLAGS["benchmark"] if flag not in reads],
    *[(command, ["--bogus"], "--bogus") for command in FLAGS],
    *[(command, [flag, value], "'seeds[0]'" if (flag, value) == ("--seed", "-1") else flag)
      for command, reads in FLAGS.items() for flag in ("--seed", "--workers")
      if flag in reads for value in ("x", "1.5", "-1", "")],
    (None, [], "command"),
    (None, ["inspect-noise", "--config", "{config}", "--out", "{out}"], "noise_file"),
]


@pytest.mark.parametrize("command, extra, named", ARGV_CASES,
                         ids=[" ".join([c or "", *e]) for c, e, _ in ARGV_CASES])
def test_mutated_argv(tmp_path, monkeypatch, capsys, inputs, command, extra, named):
    monkeypatch.chdir(tmp_path)
    argv = [] if command is None else \
        [command] if command == "gradcheck" else _argv(command, inputs, [], tmp_path)
    argv += [a.format(config=inputs["config"], out=tmp_path / "out") for a in extra]
    assert check_contract(argv, inputs, tmp_path, capsys, named) == cli.EXIT_CONFIG


@pytest.mark.parametrize("case", range(N_CASES))
def test_mutated_input(tmp_path, monkeypatch, capsys, inputs, case):
    monkeypatch.chdir(tmp_path)
    argv, files = make_case(np.random.default_rng([SEED, case]), inputs, tmp_path)
    check_contract(argv, files, tmp_path, capsys)


@pytest.mark.parametrize("path, value", EXTREMES)
def test_accepted_extreme(tmp_path, monkeypatch, capsys, inputs, path, value):
    monkeypatch.chdir(tmp_path)
    command = READER.get(path.split(".")[0], "finetune")
    argv = _argv(command, inputs, [f"{path}={json.dumps(value)}"], tmp_path)
    check_contract(argv, inputs, tmp_path, capsys)


# the learning-rate leaves each method reads; the baselines train at stage 2's rates
LEAVES = {"pac-tuning": ["stage1.lr_head", "stage1.lr_noise_backbone", "stage2.lr_head",
                         "stage2.lr_backbone"],
          "vanilla": ["stage2.lr_head", "stage2.lr_backbone"],
          "noise-injection": ["stage2.lr_head", "stage2.lr_backbone"]}
GRID = [(method, activation, decay, leaf, rate) for method, leaves in LEAVES.items()
        for activation in ("tanh", "relu") for decay in ("true", "false")
        for leaf in leaves for rate in ("1e3", "1e154", "1e308")]

REGIME_SEED = 20231102
N_DRAWN = 400
# the rows each phase trains on: the source task, then task.n_shot
ROWS = {"pretrain": BASE["task"]["source"]["n"], "stage1": BASE["task"]["n_shot"],
        "stage2": BASE["task"]["n_shot"]}
RATE_LEAVES = ["pretrain.lr_backbone", "pretrain.lr_head", "stage1.lr_backbone",
               "stage1.lr_noise_head", *LEAVES["pac-tuning"]]


def draw_regime(rng) -> tuple[str, list[str]]:
    """A command and the ``--set`` entries of one drawn regime."""
    command = _pick(rng, ["pretrain", "finetune", "finetune", "finetune", "benchmark"])
    sets = [f'method="{_pick(rng, list(LEAVES))}"'] if command == "finetune" else []
    for phase, rows in ROWS.items():
        sets += [f"{phase}.batch_size={_pick(rng, [rows - 1, rows, 2 * rows + 1])}",
                 f"{phase}.epochs={rng.integers(1, 4)}"]
    return command, sets + [
        f'model.activation="{_pick(rng, ["tanh", "relu"])}"',
        f"model.freeze_first_layer={_pick(rng, ['true', 'false'])}",
        f'bound.k.kind="{_pick(rng, ["fixed", "running"])}"',
        f'bound.gamma.kind="{_pick(rng, ["fixed", "auto"])}"',
        f"stage1.l_pac_weight={_pick(rng, [0, 1])}",
        f"noise_injection.sigma={_pick(rng, ['0.01', '0', '1e154', '1e308'])}",
        f"{_pick(rng, RATE_LEAVES)}={_pick(rng, ['1e-3', '1e3', '1e308'])}"]


DRAWN = [draw_regime(np.random.default_rng([REGIME_SEED, case])) for case in range(N_DRAWN)]
REGIMES = [("finetune", [f'method="{method}"', f'model.activation="{activation}"',
                         f"stage1.decay_weights={decay}", f"stage2.weight_decay={decay}",
                         f"{leaf}={rate}"]) for method, activation, decay, leaf, rate in GRID]


@pytest.mark.parametrize("command, sets", REGIMES + DRAWN,
                         ids=["-".join(regime) for regime in GRID] +
                         [f"drawn{case}-{command}" for case, (command, _) in enumerate(DRAWN)])
def test_regime(tmp_path, monkeypatch, capsys, inputs, command, sets):
    monkeypatch.chdir(tmp_path)
    check_contract(_argv(command, inputs, sets, tmp_path), inputs, tmp_path, capsys)
