import functools
import json
import logging
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from pactune import cli, datasets, models, optim
from pactune.cli import (EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_OK, ConfigError,
                         load_config, main)

TINY_TASK = {
    "source": {"generator": "blobs", "n": 300, "seed": 1, "classes": 2, "dim": 3,
               "separation": 3.0, "class_std": 1.0},
    "target": {"generator": "blobs", "n": 160, "seed": 2, "classes": 2, "dim": 3,
               "separation": 3.0, "class_std": 1.0, "rotation_degrees": 20.0},
    "n_shot": 40,
}


def main_or_fail(argv) -> int:
    """``main``; a ``KeyboardInterrupt`` that escapes it fails the test instead of
    ending the test session."""
    try:
        return main(argv)
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped main")


def tiny_config(tmp_path, **extra):
    cfg = {
        "task": TINY_TASK,
        "model": {"hidden": [8, 4]},
        "pretrain": {"epochs": 5},
        "stage1": {"epochs": 3},
        "stage2": {"epochs": 2},
        "seeds": [1],
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# what a kind accepts -> a value of the wrong type, then one out of its range
_BAD = {
    "an integer >= 1": ['"1"', "0"],
    "an integer >= 0": ["1.5", "-1"],
    "a finite number > 0": ['"1"', "0"],
    "a finite number >= 0": ["true", "-1"],
    "a number in (0, 1)": ['"0.5"', "1"],
    "a finite number": ['"1"', "1e400"],
    "true or false": ["1"],
    "a string": ["5"],
    "a file name: not empty, '.' or '..', and without '/' or a NUL byte":
        ["5", '"a/b"', '".."', '""', '"a\\u0000b"'],
    "a string or null": ["[]"],
    "an object": ["[]"],
    "null or an object": ["5"],
}


def _bad_values(kind):
    if isinstance(kind, cli.ListOf):
        return ["5", "[]"]
    if isinstance(kind, cli.Tagged):  # an unhashable kind too
        return ['"fast"', '{"kind": "nope"}', '{"kind": []}']
    if kind.what.startswith("one of"):
        return ["5", '"nope"']
    return _BAD[kind.what]


def _schema_sweep():
    """(--set entry, the key its error names) for each leaf and field of the table."""
    for leaf, (_, kind) in cli.SCHEMA.items():
        if leaf == "out_dir":  # --out replaces it; see test_non_string_out_dir_...
            continue
        for value in _bad_values(kind):
            yield f"{leaf}={value}", leaf
        if isinstance(kind, cli.ListOf):
            for value in _bad_values(kind.item):
                yield f"{leaf}=[{value}]", f"{leaf}[0]"
        for name, field in kind.fields.items():
            key = leaf if name == "kind" else f"{leaf}.{name}"  # a bad kind is the union's
            for value in _bad_values(field):
                if kind is cli.SPEC:  # null by default, so set the whole object
                    spec = json.dumps({"generator": "blobs", name: json.loads(value)})
                    yield f"{leaf}={spec}", key
                else:
                    yield f"{leaf}.{name}={value}", key


class TestConfig:
    def test_defaults_materialized(self):
        cfg = load_config(None)
        assert cfg["stage1"]["epochs"] == 150
        assert cfg["seeds"] == [1, 2, 10, 26, 100]

    def test_seed_kind_is_not_rebound(self):
        assert isinstance(cli.SEED, cli.Leaf)  # the flag lists take other names

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"stage1": {"epoch": 10}}')
        with pytest.raises(ConfigError, match="stage1.epoch"):
            load_config(str(path))

    def test_unknown_dataset_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"task": {"source": {"generator": "blobs", "blob": 1}}}')
        with pytest.raises(ConfigError, match="task.source.blob"):
            load_config(str(path))

    def test_set_overrides_leaf(self):
        cfg = load_config(None, sets=["stage1.epochs=7", "bound.gamma.value=10.0"])
        assert cfg["stage1"]["epochs"] == 7
        assert cfg["bound"]["gamma"]["value"] == 10.0

    def test_set_bad_path_rejected(self):
        with pytest.raises(ConfigError, match="^unknown config key 'stage1.nope'$"):
            load_config(None, sets=["stage1.nope=1"])

    def test_seed_and_out_are_set_shorthands_applied_last(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_finetune", lambda config: seen.append(config) or 0)
        sets = ["seeds=[3]", 'out_dir="elsewhere"']
        assert main(["finetune", "--seed", "42", "--out", "some\u00e9 \"where\"",
                     *(a for entry in sets for a in ("--set", entry))]) == EXIT_OK
        assert seen == [cli.task_config(load_config(
            None, [*sets, "seeds=[42]", 'out_dir="some\u00e9 \\"where\\""']))]
        assert (seen[0]["seeds"], seen[0]["out_dir"]) == ([42], 'some\u00e9 "where"')

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        want = (f"cannot use config file '{path}': Expecting property name enclosed in "
                "double quotes: line 1 column 2 (char 1)")
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            load_config(str(path))

    def test_bad_values_exit_config(self, tmp_path):
        code = main(["finetune", "--config", tiny_config(tmp_path),
                     "--set", "stage1.epochs=0"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("setting, key", [
        ("pretrain.batch_size=0", "pretrain.batch_size"),
        ("stage1.batch_size=0", "stage1.batch_size"),
        ("stage2.batch_size=-3", "stage2.batch_size"),
        ("pretrain.epochs=0", "pretrain.epochs"),
        ("stage2.epochs=0", "stage2.epochs"),
        ('stage1.epochs="many"', "stage1.epochs"),
        ("pretrain.lr_head=0", "pretrain.lr_head"),
        ("stage1.lr_noise_backbone=-0.1", "stage1.lr_noise_backbone"),
        ("stage1.lr_noise_head.init=0", "stage1.lr_noise_head.init"),
        ("stage2.lr_backbone=0", "stage2.lr_backbone"),
        ("task.n_shot=0", "task.n_shot"),
        ("noise_injection.sigma=-1", "noise_injection.sigma"),
        ("seeds=[]", "seeds"),
        ("model.hidden=[24,0]", "model.hidden[1]"),
        ('task_overrides={"blobs-rotate": {"stage1": {"epoch": 5}}}',
         "task_overrides.blobs-rotate.stage1.epoch"),
        ('task_overrides={"no-such-task": {}}', "task_overrides.no-such-task"),
        ("task_overrides.blobs-rotate.stage1.nope=1",
         "task_overrides.blobs-rotate.stage1.nope"),
        ("stage1=5", "stage1"),
        ('task_overrides={"xor-noise": {"pretrain": {"batch_size": 0}}}',
         "task_overrides.xor-noise.pretrain.batch_size"),
        ("bound.gamma=5", "bound.gamma"),
        ("bound.k=3", "bound.k"),
        ('bound.gamma={"low": -1, "high": 2}', "bound.gamma"),
        ("task.n_shot=100000", "task.n_shot"),
        ('model.activation="sigmoid"', "model.activation"),
        ('tasks=["blobs-rotate","nope"]', "tasks[1]"),
        ('method="dropout"', "method"),
        ('methods=["dropout"]', "methods[0]"),
        ("methods=[]", "methods"),
        ('methods="vanilla"', "methods"),
        ("stage1.lr_noise_head.factor=-1", "stage1.lr_noise_head.factor"),
        ("stage1.lr_noise_head.floor=-1", "stage1.lr_noise_head.floor"),
        ('model.freeze_first_layer="false"', "model.freeze_first_layer"),
        ('stage1.decay_weights="no"', "stage1.decay_weights"),
        ("stage2.weight_decay=3", "stage2.weight_decay"),
        ("stage1.epochs=1.5", "stage1.epochs"),
        ("stage1.epochs=2.0", "stage1.epochs"),
        ("task.n_shot=1.5", "task.n_shot"),
        ("seeds=[1.5]", "seeds[0]"),
        ('seeds=["a"]', "seeds[0]"),
        ("seeds=[1,-2]", "seeds[1]"),
        ('pretrain.seed="x"', "pretrain.seed"),
        ("stage1.l_pac_weight=-1", "stage1.l_pac_weight"),
        ("checkpoint=5", "checkpoint"),
        ('stage1={"epochs": 5}', "stage1.batch_size"),
        ('model={"hidden": [4]}', "model.activation"),
        ('task={"name": "blobs-rotate"}', "task.source"),
        ('task={"name": "x", "n_shot": 10, "source": {"generator": "blobs", "n": 0}, '
         '"target": {"generator": "blobs", "n": 50}}', "task.source"),
        ('task={"name": "x", "n_shot": 10, "source": {"generator": "blobs", "n": 50}, '
         '"target": {"generator": "blobs", "n": 50, "dim": 0}}', "task.target"),
        ('task={"name": "x", "n_shot": 10, "source": {"generator": "blobs", "n": 50}, '
         '"target": {"generator": "blobs", "n": 50, "dim": 3}}', "task"),
        ('task_overrides={"xor-noise": {"seeds": [3]}}', "task_overrides.xor-noise.seeds"),
        ('task_overrides={"xor-noise": {"methods": ["vanilla"]}}',
         "task_overrides.xor-noise.methods"),
        ('task_overrides={"xor-noise": {"method": "vanilla"}}',
         "task_overrides.xor-noise.method"),
        ('task_overrides={"xor-noise": {"tasks": ["xor-noise"]}}',
         "task_overrides.xor-noise.tasks"),
        ('task_overrides={"xor-noise": {"out_dir": "elsewhere"}}',
         "task_overrides.xor-noise.out_dir"),
        ('task_overrides={"xor-noise": {"checkpoint": "c.json"}}',
         "task_overrides.xor-noise.checkpoint"),
        ('task_overrides={"xor-noise": {"task_overrides": {}}}',
         "task_overrides.xor-noise.task_overrides"),
        ('task_overrides={"xor-noise": {"task": {"name": "blobs-rotate"}}}',
         "task_overrides.xor-noise.task.name"),
        ('task_overrides={"xor-noise": {"task": {"source": null}}}',
         "task_overrides.xor-noise.task.source"),
        ('task_overrides={"xor-noise": {"task": {"target": null}}}',
         "task_overrides.xor-noise.task.target"),
        ('bound.delta="0.5"', "bound.delta"),
        ('bound.gamma.value="5"', "bound.gamma.value"),
        ("bound.gamma.value=true", "bound.gamma.value"),
        ('bound.k.ema_decay="0.5"', "bound.k.ema_decay"),
        ("pretrain.lr_backbone=1e400", "pretrain.lr_backbone"),
        ("stage1.lr_head=Infinity", "stage1.lr_head"),
        ('bound.k={"kind": "fixed", "value": 1, "bogus": 3}', "bound.k.bogus"),
        ("seeds=[3,3]", "seeds"),
        ("seeds=[1,2,1]", "seeds"),
        ('methods=["vanilla","vanilla"]', "methods"),
        ('tasks=["xor-noise","xor-noise"]', "tasks"),
    ])
    def test_invalid_leaf_exits_config_before_work(self, tmp_path, capsys, setting,
                                                   key):
        code = main(["pretrain", "--out", str(tmp_path / "out"), "--set", setting])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and f"'{key}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    # a row of the table above cannot hold these: their --out replaces out_dir;
    # an empty out_dir would write into the working directory
    @pytest.mark.parametrize("argv", [["--set", "out_dir=5"], ["--out", ""],
                                      ["--set", 'out_dir=""']])
    def test_non_string_out_dir_exits_config_before_work(self, tmp_path, capsys,
                                                         monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code = main(["pretrain", *argv])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and "'out_dir'" in err
        assert list(tmp_path.iterdir()) == []

    # both become parts of output paths: task.name a file name, out_dir a path
    @pytest.mark.parametrize("argv, key", [
        (["finetune", "--set", 'task.name="a/b"', "--set", 'checkpoint="c.json"'],
         "task.name"),
        (["pretrain", "--set", 'task.name=".."'], "task.name"),
        (["pretrain", "--set", 'out_dir="a\\u0000b"'], "out_dir"),
        (["pretrain", "--out", "a\0b"], "out_dir"),
    ])
    def test_unusable_path_part_exits_config_before_work(self, tmp_path, capsys,
                                                         monkeypatch, argv, key):
        config = tiny_config(tmp_path)  # explicit source and target: any name is a task
        monkeypatch.chdir(tmp_path)
        code = main([*argv, "--config", config])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert re.fullmatch(rf"config error: '{key}' must be [^\n]+\n", err), err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("command, workers", [("benchmark", "0"), ("benchmark", "-3")])
    def test_workers_below_one_exit_config_before_work(self, tmp_path, capsys, monkeypatch,
                                                       command, workers):
        monkeypatch.setattr(cli, "pretrain_for_task", None)  # no work may start
        code = main([command, "--workers", workers, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == f"config error: --workers must be at least 1, got {workers}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    # a flag the command does not read, an unknown one, or a bad flag value; what
    # the command does not take is named with the command and the flags it takes
    @pytest.mark.parametrize("argv, message", [
        (["pretrain", "--seed", "3"],
         "pretrain does not take --seed 3; it takes --config, --set, --out"),
        (["pretrain", "--workers", "0"],
         "pretrain does not take --workers 0; it takes --config, --set, --out"),
        (["gradcheck", "--workers", "0"],
         "gradcheck does not take --workers 0; it takes no flags"),
        (["pretrain", "--bogus"],
         "pretrain does not take --bogus; it takes --config, --set, --out"),
        (["finetune", "--see", "3"],
         "finetune does not take --see 3; it takes --config, --set, --out, --seed"),
        (["benchmark", "--bogus"], "benchmark does not take --bogus; "
         "it takes --config, --set, --out, --seed, --workers"),
        (["inspect-noise", "a.json", "b.json"],
         "inspect-noise does not take b.json; it takes --config, --set, --out"),
        (["benchmark", "--workers", "x"], "argument --workers: invalid int value: 'x'"),
        (["finetune", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
        ([], "the following arguments are required: command"),
        (["inspect-noise"], "the following arguments are required: noise_file"),
    ])
    def test_bad_command_line_exits_config_before_work(self, tmp_path, capsys, monkeypatch,
                                                       argv, message):
        monkeypatch.chdir(tmp_path)  # where the default out_dir would be made
        for name in ("pretrain_for_task", "cmd_gradcheck", "load_config"):
            monkeypatch.setattr(cli, name, None)  # no work may start
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["pretrain", "--help"],
                                      ["gradcheck", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: pactune")

    def test_a_model_may_repeat_a_width(self):
        assert load_config(None, ["model.hidden=[8,8]"])["model"]["hidden"] == [8, 8]


    def test_n_shot_below_an_explicit_target_size(self, tmp_path):
        with pytest.raises(ConfigError, match="'task.n_shot' must be below 160"):
            load_config(tiny_config(tmp_path), sets=["task.n_shot=160"])

    # the view a single-task command runs is checked too, not only the benchmark's:
    # here the configured task's override asks for more rows than its target has
    @pytest.mark.parametrize("command", ["finetune", "pretrain", "generate-data"])
    def test_view_of_the_configured_task_exits_config_before_work(self, tmp_path, capsys,
                                                                  command):
        checkpoint = tmp_path / "pretrained.json"  # fits the task: only n_shot is wrong
        model = models.init_weights([6, 24, 12, 3], np.random.default_rng(0))
        models.save_checkpoint(model, checkpoint, {"seed": 0, "task": "x", "epoch": 1})
        sets = [
            "task.source=" + json.dumps({"generator": "blobs", "n": 300, "dim": 6,
                                         "seed": 11}),
            "task.target=" + json.dumps({"generator": "blobs", "n": 200, "dim": 6,
                                         "classes": 3, "seed": 12}),
            "task.n_shot=100",
            "task_overrides=" + json.dumps({"blobs-rotate": {"task": {"n_shot": 500}}}),
            f"checkpoint={json.dumps(str(checkpoint))}"]
        code = main([command, "--out", str(tmp_path / "out"),
                     *(a for s in sets for a in ("--set", s))])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err == ("config error: 'task_overrides.blobs-rotate.task.n_shot' must be "
                       "below 200, the size of the target task, got 500\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["file", "task_overrides"])
    def test_constant_noise_head_schedule_loads(self, tmp_path, where):
        constant = {"stage1": {"lr_noise_head": {"kind": "constant", "value": 0.1}}}
        doc = constant if where == "file" else {"task_overrides": {"xor-noise": constant}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        cfg = cli.task_config(load_config(str(path)), "xor-noise")
        assert cli.build_stage1(cfg).lr_noise_head == optim.Constant(0.1)

    def test_schema_leaves_are_the_defaults_leaves_and_documented(self):
        def leaves(node, path=""):
            for key, value in node.items():  # a tagged union or an empty map is a leaf
                if isinstance(value, dict) and value and "kind" not in value:
                    yield from leaves(value, f"{path}{key}.")
                else:
                    yield path + key

        assert list(leaves(cli.DEFAULT_CONFIG)) == list(cli.SCHEMA)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert [leaf for leaf in cli.SCHEMA if f"`{leaf}`" not in readme] == []

    @pytest.mark.parametrize("setting, key", list(_schema_sweep()))
    def test_schema_sweep_exits_config_before_work(self, tmp_path, capsys, setting, key):
        code = main(["pretrain", "--out", str(tmp_path / "out"), "--set", setting])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and f"'{key}'" in err, err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestGenerateData:
    def test_writes_loadable_csvs(self, tmp_path):
        code = main(["generate-data", "--config", tiny_config(tmp_path)])
        assert code == EXIT_OK
        src = datasets.load_csv(tmp_path / "out" / "source.csv")
        tgt = datasets.load_csv(tmp_path / "out" / "target.csv")
        assert len(src) == 300 and len(tgt) == 160

    def test_leaves_logging_alone(self, tmp_path, monkeypatch):
        # an in-process caller's root logger, as a script that configured
        # none has it: no handler, and its level restored after the test
        root = logging.getLogger()
        monkeypatch.setattr(root, "handlers", [])
        monkeypatch.setattr(root, "level", root.level)
        before = (list(root.handlers), root.level)
        assert main(["generate-data", "--out", str(tmp_path)]) == EXIT_OK
        assert (list(root.handlers), root.level) == before


class TestPretrainFinetune:
    def test_full_cycle(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        assert main(["pretrain", "--config", cfg_path]) == EXIT_OK
        ckpt = tmp_path / "out" / "pretrained.json"
        assert ckpt.exists()

        code = main(["finetune", "--config", cfg_path,
                     "--set", f'checkpoint="{ckpt}"'])
        assert code == EXIT_OK
        out = tmp_path / "out"
        jsonl = out / "blobs-rotate__pac-tuning__seed1.jsonl"
        assert jsonl.exists()
        lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert len(lines) == 3 + 2 + 1  # stage1 + stage2 epochs + summary
        assert lines[-1]["type"] == "summary"
        assert lines[-1]["config"]["stage1"]["epochs"] == 3
        assert (out / "blobs-rotate__pac-tuning__seed1__model.json").exists()
        assert (out / "blobs-rotate__pac-tuning__seed1__noise.json").exists()

    def test_vanilla_writes_no_noise_file(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        assert main(["pretrain", "--config", cfg_path]) == EXIT_OK
        ckpt = tmp_path / "out" / "pretrained.json"
        code = main(["finetune", "--config", cfg_path, "--set", "method=vanilla",
                     "--set", f'checkpoint="{ckpt}"'])
        assert code == EXIT_OK
        assert not (tmp_path / "out" / "blobs-rotate__vanilla__seed1__noise.json").exists()

    def test_finetune_without_checkpoint_is_config_error(self, tmp_path):
        assert main(["finetune", "--config", tiny_config(tmp_path)]) == EXIT_CONFIG

    def test_head_covers_a_class_only_in_the_training_split(self, tmp_path):
        # 11 of 21 rows go to training, where the one class-2 row's share (11/21)
        # rounds up, so the dev split holds classes 0 and 1 only
        rows = "".join(f"{i % 5}.0,{i // 5}.0,{label}\n"
                       for i, label in enumerate([0] * 10 + [1] * 10 + [2]))
        (tmp_path / "d.csv").write_text("a,b,label\n" + rows)
        spec = json.dumps({"generator": "csv", "path": str(tmp_path / "d.csv")})
        sets = [f"task.source={spec}", f"task.target={spec}", "task.n_shot=11",
                "model.hidden=[4]", "pretrain.epochs=2", "stage1.epochs=1",
                "stage2.epochs=1", "seeds=[1]", f"out_dir={json.dumps(str(tmp_path))}"]
        argv = [a for s in sets for a in ("--set", s)]
        assert main(["pretrain"] + argv) == EXIT_OK
        ckpt = json.dumps(str(tmp_path / "pretrained.json"))
        assert main(["finetune", "--set", f"checkpoint={ckpt}"] + argv) == EXIT_OK
        tuned = tmp_path / "blobs-rotate__pac-tuning__seed1__model.json"
        assert models.load_checkpoint(tuned).n_classes == 3
        train, dev = datasets.few_shot_sample(datasets.load_csv(tmp_path / "d.csv"), 11, 1)
        assert 2 in train.y and 2 not in dev.y

    def test_divergence_exit_code(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        assert main(["pretrain", "--config", cfg_path]) == EXIT_OK
        ckpt = tmp_path / "out" / "pretrained.json"
        # the head group always exists, so blow up its noise learning rate
        code = main(["finetune", "--config", cfg_path,
                     "--set", f'checkpoint="{ckpt}"',
                     "--set", "stage1.lr_noise_head=1e10"])
        assert code == EXIT_DIVERGENCE

    @pytest.mark.parametrize("command", ["pretrain", "benchmark"])
    def test_pretrain_divergence_names_task_and_seed(self, tmp_path, capsys, command):
        code = main([command, "--config", tiny_config(tmp_path),
                     "--set", "pretrain.lr_head=1e308", "--set", "pretrain.seed=3"])
        err = capsys.readouterr().err
        assert code == EXIT_DIVERGENCE
        assert re.fullmatch(r"numeric divergence: blobs-rotate pretraining seed 3: pretraining "
                            r"diverged at epoch 0, batch \d+: [^\n]+\n", err), err


class TestInspectNoise:
    def test_ranking_csv(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        main(["pretrain", "--config", cfg_path])
        ckpt = tmp_path / "out" / "pretrained.json"
        main(["finetune", "--config", cfg_path, "--set", f'checkpoint="{ckpt}"'])
        noise_file = tmp_path / "out" / "blobs-rotate__pac-tuning__seed1__noise.json"
        code = main(["inspect-noise", str(noise_file),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        lines = (tmp_path / "out" / "noise_ranking.csv").read_text().splitlines()
        assert lines[0] == "index,group,variance,rank"
        rows = [line.split(",") for line in lines[1:]]
        variances = {int(r[0]): float(r[2]) for r in rows}
        ranks = {int(r[0]): int(r[3]) for r in rows}
        by_rank = sorted(ranks, key=lambda i: ranks[i])
        ordered = [variances[i] for i in by_rank]
        assert ordered == sorted(ordered)
        assert {r[1] for r in rows} == {"backbone", "head"}


def _drop_last_weight(doc):
    doc["params"][0]["w"].pop()
    return doc


def _nan_at(layer, key):
    def edit(doc):
        doc["params"][layer][key][0] = float("nan")
        return doc
    return edit


def _negative_hidden_layer(doc):
    # -1 would pass reshape as a wildcard
    doc["layer_sizes"][1] = -1
    return doc


def _huge_hidden_layer(doc):
    # 1e11 units: a θ numpy cannot reserve, so the file must fail before it is sized
    doc["layer_sizes"][1] = 100_000_000_000
    return doc


# a CSV file's text -> what its error says after the file's name
_BAD_CSV = [("a,label\n1,0\nx,1\n", "row 3: non-numeric cell in column 'a': 'x'"),
            ("a,label\n1,0\n2,1.5\n", "row 3: the label must be an integer >= 0, "
                                       "got '1.5'"),
            ("a,label\n1,0\n2,-1\n", "row 3: the label must be an integer >= 0, "
                                      "got '-1'"),
            ("a,label\n1,0\n2,1e300\n", "row 3: the label must be below the row count, "
                                         "2, got '1e300'"),
            ("a,label\n1,0\nnan,1\n", "row 3: non-finite cell in column 'a': 'nan'"),
            ("a,label\n1,0\ninf,1\n", "row 3: non-finite cell in column 'a': 'inf'"),
            # finite cells whose sum overflows
            ("a,b,label\n1e308,1,0\n1e308,2,1\n-1e308,3,0\n2,4,1\n",
             "column 'a': its mean or standard deviation overflows"),
            ("label\n0\n1\n", "no feature columns")]


def _csv_task_argv(source, target, *argv):
    """``argv`` then ``--set`` entries that make the two CSV files the task."""
    specs = {"source": source, "target": target}
    sets = [f'task.{side}={json.dumps({"generator": "csv", "path": str(path)})}'
            for side, path in specs.items()] + ["task.n_shot=20"]
    return [*argv, *(a for s in sets for a in ("--set", s))]


class TestUnusableFiles:
    """A config, checkpoint, noise or CSV file that cannot be used exits 2 with
    one line that names the file once, before any output."""

    @pytest.mark.parametrize("command, content, detail", [
        ("pretrain", ("config", None), ": No such file or directory"),
        ("pretrain", ("config", "{nope"), "Expecting property name"),
        ("pretrain", ("config", "[]"), "the root is not a JSON object"),
        ("finetune", None, ": No such file or directory"),
        ("finetune", "not json", "Expecting value"),
        ("finetune", ((3, 4, 2), _drop_last_weight), "cannot reshape array of size 11"),
        ("finetune", ((3, 4, 2), _huge_hidden_layer),
         "cannot reshape array of size 12 into shape (3,100000000000)"),
        # the tiny task's inputs have 3 features
        ("finetune", ((2, 4, 2), None),
         ": it takes inputs of size 2, but the target task's inputs have size 3"),
        # the tiny config's hidden layers are [8, 4]
        ("finetune", ((3, 5, 2), None),
         ": it has hidden layers [5], but 'model.hidden' is [8, 4]"),
        # a checkpoint the config fits, but for one NaN: a file fault, not a divergence
        ("finetune", ((3, 8, 4, 2), _nan_at(0, "w")),
         "layer 0 holds a non-finite weight or bias"),
        # replace_head discards the head, but the file is still unusable
        ("finetune", ((3, 8, 4, 2), _nan_at(2, "b")),
         "layer 2 holds a non-finite weight or bias"),
        ("finetune", ((3, 8, 4, 2), _negative_hidden_layer),
         "layer_sizes must be integers >= 1, got [3, -1, 4, 2]"),
        ("inspect-noise", "not json", "Expecting value"),
        ("inspect-noise", '{"version": 2}', "unsupported noise-state version: 2"),
        ("inspect-noise", '{"version": 1, "p_backbone": [0.5, NaN], "p_head": [0.1], '
         '"log_lambda": 0.0, "log_beta": 0.0}', "a log-std or prior log-variance is not finite"),
        # finite, but exp(2 * 1e308) is not: no overflow warning, no inf variance ranked
        ("inspect-noise", '{"version": 1, "p_backbone": [0.5, 1e308], "p_head": [0.1], '
         '"log_lambda": 0.0, "log_beta": 0.0}', "or its variance is not finite and > 0"),
        ("inspect-noise", None, ": No such file or directory"),
        *[(command, ("csv", text), detail) for text, detail in _BAD_CSV
          for command in ("generate-data", "pretrain", "finetune")],
        # one data row: the commands that read the target check it against n_shot 1
        *[(command, ("csv", "a,label\n1,0\n"), ": 'task.n_shot' must be below 1, the size "
           "of the target task, got 1") for command in ("generate-data", "finetune")],
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exits_config_before_any_output(self, tmp_path, capsys, command, content,
                                            detail):
        path = tmp_path / "file.json"
        if isinstance(content, str):
            path.write_text(content)
        elif content in (None, ("config", None)):
            pass  # a file that does not exist
        elif content[0] in ("csv", "config"):
            path = tmp_path / f"file.{'csv' if content[0] == 'csv' else 'json'}"
            path.write_text(content[1])
        else:
            sizes, edit = content
            model = models.init_weights(list(sizes), np.random.default_rng(0))
            models.save_checkpoint(model, path, {})
            if edit:
                path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        out = tmp_path / "out"
        if content is not None and content[0] == "config":
            argv = [command, "--config", str(path), "--out", str(out)]
        elif path.suffix == ".csv":
            spec = {"generator": "csv", "path": str(path)}
            task = {"source": spec, "target": spec, "n_shot": 1}
            argv = [command, "--config", tiny_config(tmp_path, task=task)]
        elif command == "finetune":
            argv = ["finetune", "--config", tiny_config(tmp_path),
                    "--set", f'checkpoint="{path}"']
        else:
            argv = ["inspect-noise", str(path), "--out", str(out)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and len(err.splitlines()) == 1, err
        assert err.count(f"'{path}'") == 1 and detail in err, err
        assert re.match(rf"config error: cannot use .* {re.escape(repr(str(path)))}: ",
                        err), err
        assert "Traceback" not in err
        assert not out.exists()


AT = r"epoch \d+, batch \d+: \S"  # where a divergence happened, then what diverged
# (command, its --set entries, the pattern that starts what follows the run's name)
DIVERGENCES = [
    ("pretrain", "pretrain.lr_head=1e308", rf"pretraining diverged at {AT}"),
    ("finetune", "stage1.lr_noise_head=1e10", rf"stage 1 diverged at {AT}"),
    ("benchmark", "stage1.lr_noise_head=1e10", rf"stage 1 diverged at {AT}"),
    # finite weights and outputs, but a KL their square sum overflows
    *[(command, "stage2.weight_decay=false stage2.lr_head=1e154",
       "stage 2 diverged at epoch 3, batch 1: the epoch's kl_head is not finite")
      for command in ("finetune", "benchmark")],
    # an epoch's only update diverges, and the evaluation after it is its guard
    ("pretrain", "pretrain.epochs=1 pretrain.batch_size=5000 "
     "pretrain.lr_backbone=1e308 pretrain.lr_head=1e308",
     "pretraining diverged at epoch 0, batch 0: layer 0 output is not finite"),
    ("finetune", 'method="vanilla" task.n_shot=32 '
     "stage2.lr_backbone=1e308 stage2.lr_head=1e308",
     r"vanilla fine-tuning diverged at epoch 0, batch 0: \S"),
    # stage 1's only update overflows the KL, which stage 1 checks and names
    *[(command, "task.n_shot=32 stage1.epochs=1 stage2.epochs=1 stage1.lr_head=1e154",
       "stage 1 diverged at epoch 0, batch 0: the last update's kl_head is not finite")
      for command in ("finetune", "benchmark")],
]


class TestFailedCommandLeavesNoOutput:
    """A command that fails, at any exit code, leaves no output directory of
    its own; one that existed before keeps its files."""

    @pytest.mark.parametrize("command, setting, message", DIVERGENCES,
                             ids=[f"{c} {s}" for c, s, _ in DIVERGENCES])
    def test_divergence(self, tmp_path, capsys, command, setting, message):
        config = tiny_config(tmp_path)
        assert main(["pretrain", "--config", config]) == EXIT_OK
        checkpoint = json.dumps(str(tmp_path / "out" / "pretrained.json"))
        code = main([command, "--config", config, "--out", str(tmp_path / "failed"),
                     "--set", f"checkpoint={checkpoint}",
                     *(a for entry in setting.split() for a in ("--set", entry))])
        err = capsys.readouterr().err
        assert code == EXIT_DIVERGENCE
        assert re.fullmatch(rf"numeric divergence: [^\n]*: {message}[^\n]*\n", err), err
        assert not (tmp_path / "failed").exists()

    # sizes no 64-bit address space can map, so numpy never reserves them
    @pytest.mark.parametrize("command, sets", [
        ("pretrain", ["model.hidden=[10000000000000000]"]),
        ("benchmark", ["model.hidden=[10000000000000000]"]),
        ("generate-data", ['task.source={"generator": "blobs", "n": 10000000000000000}',
                           'task.target={"generator": "blobs", "n": 500}']),
    ])
    def test_sizes_that_do_not_fit_in_memory(self, tmp_path, capsys, command, sets):
        code = main([command, "--out", str(tmp_path / "out"),
                     *(a for s in sets for a in ("--set", s))])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert re.fullmatch(r"config error: the configured sizes do not fit in memory: "
                            r"Unable to allocate [^\n]+\n", err), err
        assert not (tmp_path / "out").exists()

    def test_failed_write(self, tmp_path, capsys, monkeypatch):
        config = tiny_config(tmp_path)
        assert main(["pretrain", "--config", config]) == EXIT_OK
        checkpoint = json.dumps(str(tmp_path / "out" / "pretrained.json"))

        def disk_full(noise, path):  # the last of finetune's three files
            Path(path).write_text("{")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.bound, "save_noise_state", disk_full)
        code = main(["finetune", "--config", config, "--out", str(tmp_path / "failed"),
                     "--set", f"checkpoint={checkpoint}"])
        assert code == cli.EXIT_IO
        assert capsys.readouterr().err == "i/o error: [Errno 28] No space left on device\n"
        assert not (tmp_path / "failed").exists()

    def test_write_outputs_removes_what_it_made(self, tmp_path):
        def disk_full(path):
            Path(path).write_text("half")
            raise OSError(28, "No space left on device")

        old = tmp_path / "old"
        old.mkdir()
        (old / "kept.txt").write_text("old")
        for out in (tmp_path / "new", old):
            with pytest.raises(OSError, match="No space left"):
                cli._write_outputs([(out / "runs" / "a.jsonl", lambda p: p.write_text("a")),
                                    (out / "report.json", disk_full)])
        assert [p.name for p in tmp_path.iterdir()] == ["old"]
        assert [p.name for p in old.iterdir()] == ["kept.txt"]
        assert (old / "kept.txt").read_text() == "old"

    @pytest.mark.parametrize("command", ["pretrain", "benchmark"])
    def test_interrupt(self, tmp_path, capsys, monkeypatch, command):
        def interrupted(config, source):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "pretrain_for_task", interrupted)
        code = main_or_fail([command, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 130
        assert (captured.out, captured.err) == ("", "interrupted\n")
        assert not (tmp_path / "out").exists()

    def test_sigint(self, tmp_path):
        """SIGINT, as Ctrl-C sends it, to a process in its own session, so that no
        other process group is signalled; its pretraining outlasts the wait."""
        script = ("import sys; from pactune import cli; print('started', flush=True); "
                  "sys.exit(cli.main(['pretrain', '--set', 'pretrain.epochs=100000', "
                  "'--out', 'out']))")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.Popen([sys.executable, "-c", script], cwd=tmp_path, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            assert proc.stdout.readline() == "started\n"
            try:
                proc.wait(timeout=0.5)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()  # only if it still runs
            proc.wait()
        assert proc.returncode == 130, err
        assert (out, err) == ("", "interrupted\n")
        assert list(tmp_path.iterdir()) == []


class TestTaskFileReads:
    """A command reads each task file it uses once, and no file it does not use."""

    @pytest.fixture
    def csv_files(self, tmp_path, monkeypatch):
        assert main(["generate-data", "--config", tiny_config(tmp_path)]) == EXIT_OK
        reads = []
        load_csv = datasets.load_csv
        monkeypatch.setattr(datasets, "load_csv", lambda path, *a:
                            reads.append(Path(path).name) or load_csv(path, *a))
        return tmp_path / "out" / "source.csv", tmp_path / "out" / "target.csv", reads

    def test_one_read_per_file_used(self, tmp_path, csv_files):
        source, target, reads = csv_files
        cfg = tiny_config(tmp_path)
        out = str(tmp_path / "csv")
        checkpoint = json.dumps(f"{out}/pretrained.json")
        for argv, want in [(["generate-data"], ["source.csv", "target.csv"]),
                           (["pretrain"], ["source.csv"]),
                           (["finetune", "--set", f"checkpoint={checkpoint}"],
                            ["target.csv"])]:
            reads.clear()
            argv = _csv_task_argv(source, target, *argv, "--config", cfg, "--out", out)
            assert main(argv) == EXIT_OK
            assert reads == want, argv[0]

    @pytest.mark.parametrize("command", ["benchmark", "gradcheck"])
    def test_unused_files_are_not_read(self, tmp_path, csv_files, command):
        source, target, reads = csv_files
        argv = _csv_task_argv(source, target, command, "--config", tiny_config(tmp_path),
                              "--set", 'tasks=["blobs-rotate"]',
                              "--set", 'methods=["vanilla"]')
        # gradcheck takes no flag, so a task file given to it is a config error
        assert main(argv) == (EXIT_CONFIG if command == "gradcheck" else EXIT_OK)
        assert reads == []


class TestGradcheckCommand:
    def test_passes(self, capsys):
        assert cli.cmd_gradcheck(seeds=5) == EXIT_OK
        out = capsys.readouterr().out
        assert "matmul" in out and "full J" in out and "FAIL" not in out


def _worker_dies(payload):
    os._exit(9)


def _worker_interrupted(payload):
    raise KeyboardInterrupt


class TestBenchmark:
    def bench_config(self, tmp_path, out_name="bench"):
        cfg = {
            "tasks": ["blobs-rotate"],
            "methods": ["vanilla", "pac-tuning"],
            "seeds": [1, 2],
            "task": {"n_shot": 40},
            "model": {"hidden": [8]},
            "pretrain": {"epochs": 2},
            "stage1": {"epochs": 2},
            "stage2": {"epochs": 2},
            "out_dir": str(tmp_path / out_name),
        }
        path = tmp_path / f"{out_name}.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_report_aggregates_match_jsonl(self, tmp_path):
        cfg_path = self.bench_config(tmp_path)
        assert main(["benchmark", "--config", cfg_path]) == EXIT_OK
        out = tmp_path / "bench"
        report = json.loads((out / "benchmark_report.json").read_text())
        for method in ("vanilla", "pac-tuning"):
            finals = []
            for seed in (1, 2):
                lines = (out / "runs" /
                         f"blobs-rotate__{method}__seed{seed}.jsonl").read_text()
                finals.append(json.loads(lines.splitlines()[-1])["final"]["dev_accuracy"])
            agg = report["results"]["blobs-rotate"][method]
            assert agg["mean_accuracy"] == pytest.approx(np.mean(finals), abs=1e-15)
            assert agg["per_seed_accuracy"] == finals

    def test_single_seed_report_equals_run_final(self, tmp_path):
        cfg_path = self.bench_config(tmp_path, out_name="single")
        assert main(["benchmark", "--config", cfg_path, "--seed", "7"]) == EXIT_OK
        out = tmp_path / "single"
        report = json.loads((out / "benchmark_report.json").read_text())
        line = (out / "runs" / "blobs-rotate__vanilla__seed7.jsonl").read_text()
        final = json.loads(line.splitlines()[-1])["final"]
        agg = report["results"]["blobs-rotate"]["vanilla"]
        assert agg["mean_accuracy"] == final["dev_accuracy"]
        assert agg["std_accuracy"] == 0.0

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = self.bench_config(tmp_path, out_name="det")
        assert main(["benchmark", "--config", cfg_path]) == EXIT_OK
        out = tmp_path / "det"
        first = {p.name: p.read_bytes() for p in (out / "runs").iterdir()}
        first_report = (out / "benchmark_report.json").read_bytes()
        shutil.rmtree(out)
        assert main(["benchmark", "--config", cfg_path]) == EXIT_OK
        second = {p.name: p.read_bytes() for p in (out / "runs").iterdir()}
        assert first == second
        assert first_report == (out / "benchmark_report.json").read_bytes()

    def test_each_task_is_generated_once(self, tmp_path, monkeypatch):
        generated = []
        generate = datasets.generate
        monkeypatch.setattr(datasets, "generate",
                            lambda spec: generated.append(spec) or generate(spec))
        sets = [f"{phase}.epochs=1" for phase in ("pretrain", "stage1", "stage2")]
        argv = ["benchmark", "--workers", "1", "--out", str(tmp_path / "once")]
        assert main(argv + [a for s in sets for a in ("--set", s)]) == EXIT_OK
        pairs = [datasets.builtin_task(t) for t in load_config(None)["tasks"]]
        assert len(pairs) == 3
        assert generated == [spec for pair in pairs for spec in (pair.source, pair.target)]

    def test_workers_do_not_change_results(self, tmp_path):
        cfg_path = self.bench_config(tmp_path, out_name="par")
        outputs = []
        for workers in (1, 2):  # the report, then each record's JSONL in run order
            report, records = cli.run_benchmark(load_config(cfg_path), workers=workers)
            outputs.append([json.dumps(report, sort_keys=True)])
            for i, record in enumerate(records):
                record.to_jsonl(tmp_path / f"w{workers}-{i}.jsonl")
                outputs[-1].append((tmp_path / f"w{workers}-{i}.jsonl").read_bytes())
        assert len(outputs[0]) == 1 + 2 * 2
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("workers, runs, pools", [(500, 4, [4]), (2, 4, [2]),
                                                      (500, 1, [])])
    def test_pool_has_no_more_workers_than_runs(self, tmp_path, monkeypatch, workers,
                                                runs, pools):
        sizes = []

        class RecordingPool:
            """Records its size and maps in this process; starts no worker."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        config = load_config(self.bench_config(tmp_path))
        if runs == 1:
            config.update(methods=["vanilla"], seeds=[1])
        _, records = cli.run_benchmark(config, workers=workers)
        assert len(records) == runs
        assert sizes == pools

    # pytest records warnings instead of printing them, so a numpy warning in
    # a worker fails the run here; capfd also takes the workers' stderr
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_in_a_worker_names_the_run(self, tmp_path, capfd):
        cfg_path = self.bench_config(tmp_path, out_name="div")
        code = main(["benchmark", "--config", cfg_path, "--workers", "2",
                     "--set", "stage1.lr_head=1e308"])
        err = capfd.readouterr().err
        assert code == EXIT_DIVERGENCE
        assert re.search(r"^numeric divergence: blobs-rotate pac-tuning seed [12]: "
                         r"stage 1 diverged at epoch \d+, batch \d+: ", err), err
        assert len(err.splitlines()) == 1, err

    # a worker's end is the test's to choose, so the pool forks whatever the
    # default start method; capfd also takes the workers' stderr
    @pytest.mark.parametrize("run, code, line", [
        (_worker_dies, 5, "worker error: a benchmark worker ended abruptly"),
        (_worker_interrupted, 130, "interrupted"),
    ])
    def test_pool_failure_ends_in_one_line(self, tmp_path, capfd, monkeypatch, run, code,
                                           line):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        monkeypatch.setattr(cli, "_benchmark_run", run)
        assert main_or_fail(["benchmark", "--config", self.bench_config(tmp_path),
                             "--workers", "2"]) == code
        assert capfd.readouterr() == ("", f"{line}\n")
        assert not (tmp_path / "bench").exists()

    def test_task_override_applies(self, tmp_path):
        cfg_path = self.bench_config(tmp_path, out_name="ovr")
        cfg = json.loads((tmp_path / "ovr.json").read_text())
        cfg["task_overrides"] = {"blobs-rotate": {"bound": {"gamma": {"value": 10.0}}}}
        (tmp_path / "ovr.json").write_text(json.dumps(cfg))
        config = load_config(cfg_path)
        merged = cli.task_config(config, "blobs-rotate")
        assert merged["bound"]["gamma"]["value"] == 10.0
        assert merged["task"]["name"] == "blobs-rotate"

    def test_pretrain_applies_its_task_override(self, tmp_path):
        override = json.dumps({"blobs-rotate": {"pretrain": {"epochs": 1}}})
        assert main(["pretrain", "--out", str(tmp_path), "--set",
                     f"task_overrides={override}", "--set", "pretrain.epochs=2"]) == EXIT_OK
        checkpoint = json.loads((tmp_path / "pretrained.json").read_text())
        assert checkpoint["provenance"]["epoch"] == 1

    def test_finetune_reproduces_a_benchmark_run_of_an_overridden_task(self, tmp_path):
        cfg_path = self.bench_config(tmp_path, out_name="ovr")
        cfg = json.loads((tmp_path / "ovr.json").read_text())
        cfg["methods"] = ["pac-tuning"]
        cfg["task_overrides"] = {"blobs-rotate": {"pretrain": {"epochs": 1},
                                                  "stage1": {"epochs": 3},
                                                  "task": {"n_shot": 30}}}
        (tmp_path / "ovr.json").write_text(json.dumps(cfg))
        assert main(["benchmark", "--config", cfg_path]) == EXIT_OK
        single = str(tmp_path / "single")
        assert main(["pretrain", "--config", cfg_path, "--out", single]) == EXIT_OK
        checkpoint = json.dumps(f"{single}/pretrained.json")
        assert main(["finetune", "--config", cfg_path, "--out", single, "--seed", "1",
                     "--set", f"checkpoint={checkpoint}"]) == EXIT_OK
        name = "blobs-rotate__pac-tuning__seed1.jsonl"
        bench = (tmp_path / "ovr" / "runs" / name).read_text().splitlines()
        tuned = (tmp_path / "single" / name).read_text().splitlines()
        assert len(bench) == 3 + 2 + 1
        assert tuned[:-1] == bench[:-1]
