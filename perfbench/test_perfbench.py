"""Tests of the benchmark itself: failure counting, tracing, compare verdicts.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Finetune  # noqa: E402


def test_divergence_is_counted_and_the_run_goes_on(tmp_path):
    from pactune import cli

    wl = Finetune(1, tmp_path)
    wl.setup()
    wl.config["stage1"]["epochs"] = 2
    wl.config["stage2"]["epochs"] = 1
    wl.stage1 = replace(cli.build_stage1(wl.config), lr_head=math.nan)
    wl.stage2 = cli.build_stage2(wl.config)
    wl.runs = wl.runs[:1]
    tally = run.Tally(wl, references=None)
    tally.timed_pass()

    assert tally.attempted == 3
    assert tally.failed == 1
    (bad,) = [op for op in tally.ops if op.failures]
    assert bad.method == "pac-tuning" and bad.diverged
    assert bad.failures[0].startswith("divergence")
    assert {op.method for op in tally.ops if not op.failures} == {"vanilla",
                                                                  "noise-injection"}


def test_self_time_is_total_minus_children():
    tracer = Tracer()

    def inner(n):
        return sum(range(n))

    inner_w = tracer.wrap("inner", inner)

    def outer():
        return inner_w(10_000) + inner_w(20_000)

    outer_w = tracer.wrap("outer", outer)
    assert outer_w() == sum(range(10_000)) + sum(range(20_000))
    calls, total, self_time = tracer.spans["outer"]
    assert calls == 1
    assert tracer.calls("inner") == 2
    assert math.isclose(total - self_time, tracer.spans["inner"][1], abs_tol=1e-12)
    assert tracer.spans["inner"][1] == tracer.spans["inner"][2]


def test_install_wraps_every_lookup_site_and_uninstall_restores():
    from pactune import bound, cli, optim, pgd, pipeline

    originals = (pipeline.pac_objective, pipeline.adam_step, pgd.adam_step,
                 pgd.loss_and_grads, cli.ProcessPoolExecutor)
    tracer = Tracer()
    tracer.install(("autodiff", "models", "pgd", "bound", "optim", "kernels",
                    "pipeline", "datasets", "cli"))
    try:
        assert pipeline.pac_objective is bound.pac_objective
        assert pipeline.pac_objective is not originals[0]
        assert pipeline.adam_step is pgd.adam_step is optim.adam_step
        assert pipeline.loss_and_grads is pgd.loss_and_grads
        assert issubclass(cli.ProcessPoolExecutor, originals[4])
    finally:
        tracer.uninstall()
    assert (pipeline.pac_objective, pipeline.adam_step, pgd.adam_step,
            pgd.loss_and_grads, cli.ProcessPoolExecutor) == originals


def _results(path, values, better="lower", bound=0.1):
    with open(path, "w", encoding="utf-8") as fh:
        for seed, v in enumerate(values):
            fh.write(json.dumps({"workload": "w", "seed": seed, "trace": 0, "metrics": {
                "m": {"value": v, "unit": "s", "better": better, "bound": bound}}}) + "\n")
    return compare.load(path)["w"]["m"]


def test_compare_verdicts(tmp_path):
    base = _results(tmp_path / "a", [1.0 + 0.001 * i for i in range(10)])
    faster = _results(tmp_path / "b", [0.8 + 0.001 * i for i in range(10)])
    slower = _results(tmp_path / "c", [1.3 + 0.001 * i for i in range(10)])
    noisy = _results(tmp_path / "d", [1.0, 1.5] * 5)
    assert compare.verdict(base, base)[0] == "unchanged"
    assert compare.verdict(base, faster)[0] == "better"
    assert compare.verdict(base, slower)[0] == "worse"
    assert compare.verdict(base, noisy)[0] == "unresolved"
    few = _results(tmp_path / "e", [0.8, 0.81, 0.82])
    assert compare.verdict(base, few)[0] == "unchanged"  # too few pairs to claim
    no_failures = _results(tmp_path / "f", [0.0] * 10, bound=0.0)
    one_failure = _results(tmp_path / "g", [0.0] * 9 + [0.1], bound=0.0)
    assert compare.verdict(no_failures, no_failures)[0] == "unchanged"
    assert compare.verdict(no_failures, one_failure)[0] == "worse"


def test_benchmark_json_names_match_what_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units())
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "steps_per_s", "accuracy", "peak_rss_mb"}
    assert not set(run.EXTRA_METRICS) & {m["name"] for m in spec["end_to_end"]}


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pretrain",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
