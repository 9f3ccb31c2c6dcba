"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime budget is asserted, not just printed.
"""

import json
import shutil
import time

import numpy as np
import pytest
from helpers import mc_kl

from pactune import autodiff as ad
from pactune import bound, cli, datasets, models, pipeline


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def default_config():
    return cli.load_config(None)


@pytest.fixture(scope="module")
def blobs_setup():
    # Apparatus for the stage-dynamics experiments (criteria 4, 5, 9): a
    # moderately pretrained backbone. A fully converged desk-scale backbone
    # leaves most trainable coordinates with near-zero loss gradient, and the
    # optimizer then random-walks their log-stds, burying the training-loss
    # signal these mechanism checks measure.
    config = cli.load_config(None, sets=["pretrain.epochs=100"])
    cfg = cli.task_config(config, "blobs-rotate")
    pair = cli.resolve_task(cfg)
    pretrained = cli.pretrain_for_task(cfg, datasets.generate(pair.source))
    target = datasets.generate(pair.target)
    return cfg, pretrained, target


def test_criterion_01_gradcheck_suite():
    start = time.monotonic()
    *ops, (_, worst_j, _), (_, mismatches, _), (_, worst_pac, _) = ad.gradcheck_suite()
    worst_kind, worst_op, _ = max(ops, key=lambda row: row[1])
    elapsed = time.monotonic() - start
    ok = all(err < 1e-4 for _, err, _ in ops) and worst_j < 1e-3 and elapsed < 60.0
    ok &= mismatches == 0 and worst_pac <= 1e-12  # the training path, against the tape
    report("criterion 1 (gradcheck)",
           ok, f"worst op err {worst_op:.2e} ({worst_kind}), "
               f"full-J err {worst_j:.2e}, loss_and_grads values off the tape "
               f"{mismatches}, pac_objective err {worst_pac:.2e}, {elapsed:.1f}s")


def test_criterion_02_kl_correctness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(1, 5))
        var_p = float(rng.uniform(0.5, 2.0))
        mu_p = rng.uniform(-1.0, 1.0, size=d)
        mu_q = mu_p + rng.uniform(-0.7, 0.7, size=d)
        var_q = var_p * rng.uniform(0.7, 1.4, size=d)
        cf = bound.kl_diag_vs_isotropic(mu_q, var_q, mu_p, var_p)
        mc = mc_kl(mu_q, var_q, mu_p, var_p, n_samples=10_000_000,
                   seed=int(rng.integers(1 << 31)))
        worst = max(worst, abs(cf - mc))

    nonneg = True
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        kl = bound.kl_diag_vs_isotropic(
            rng.standard_normal(d), np.exp(rng.standard_normal(d)),
            rng.standard_normal(d), float(np.exp(rng.standard_normal())))
        nonneg &= kl >= 0.0
    mu = rng.standard_normal(4)
    identical = bound.kl_diag_vs_isotropic(mu, np.full(4, 1.3), mu, 1.3)

    ok = worst < 1e-3 and nonneg and identical == 0.0
    report("criterion 2 (KL correctness)",
           ok, f"max |closed-form - MC(1e7)| {worst:.2e}, "
               f"nonneg on 1000 states {nonneg}, KL(identical) {identical}")


def test_criterion_03_gamma_optimality():
    rng = np.random.default_rng(3)
    low, high = 0.01, 10.0
    grid = np.linspace(low, high, 1000)
    worst = -np.inf
    for _ in range(100):
        a = float(rng.uniform(0.0, 20.0))
        m = int(rng.integers(1, 2000))
        k = float(rng.uniform(0.05, 5.0))
        g = bound.optimal_gamma(a, m, k, low, high)
        mine = a / (g * m) + g * k * k
        best = float(np.min(a / (grid * m) + grid * k * k))
        worst = max(worst, mine - best)
    ok = worst <= 1e-12
    report("criterion 3 (gamma optimality)",
           ok, f"max excess over 1000-point grid {worst:.2e}")


SEEDS = (1, 2, 10, 26, 100)


def test_criterion_04_noise_learning_contrast(blobs_setup):
    start = time.monotonic()
    cfg, pretrained, target = blobs_setup
    wins = 0
    for seed in SEEDS:
        train, dev = datasets.few_shot_sample(target, 100, seed=seed)
        streams = pipeline.run_streams(seed)
        model = models.replace_head(pretrained, streams[0], 3, True)
        noise = bound.init_noise_state(model)
        mean_var = {}
        for weight in (0.0, 1.0):
            s1 = cli.build_stage1(cli._deep_merge(cfg, {"stage1": {"l_pac_weight": weight}}))
            _, learned, _ = pipeline.stage1_train(
                model, noise, train, dev, s1, cli.build_bound(cfg, m=len(train)),
                np.random.Generator(np.random.PCG64(seed + 100)),
                np.random.Generator(np.random.PCG64(seed + 200)))
            mean_var[weight] = np.mean(np.concatenate(
                [learned.variances(models.ParamGroup.BACKBONE),
                 learned.variances(models.ParamGroup.HEAD)]))
        wins += mean_var[1.0] > mean_var[0.0]
    elapsed = time.monotonic() - start
    ok = wins >= 4 and elapsed < 300.0
    report("criterion 4 (noise-learning contrast)",
           ok, f"full-J variance above loss-only in {wins}/5 seeds, {elapsed:.0f}s")


def test_criterion_05_two_stage_dynamics(blobs_setup):
    # the from-scratch comparison mirrors the role-of-stage-1 figure: both
    # runs share one epoch axis, the scratch run training only through the
    # stage-2 window with the same learned noise
    cfg, pretrained, target = blobs_setup
    wins_a, wins_b = 0, 0
    for seed in SEEDS:
        train, dev = datasets.few_shot_sample(target, 100, seed=seed)
        s1 = cli.build_stage1(cfg)
        s2 = cli.build_stage2(cfg)
        bcfg = cli.build_bound(cfg, m=len(train))
        rec, _, noise = pipeline.run_finetune(pretrained, train, dev, "pac-tuning",
                                              seed, stage1=s1, stage2=s2,
                                              bound_cfg=bcfg)
        stage1_final = rec.epochs[rec.stage_boundary - 1]["l_train"]
        pac_final = rec.epochs[-1]["l_train"]
        wins_a += pac_final < stage1_final

        streams = pipeline.run_streams(seed)
        fresh = models.replace_head(pretrained, streams[0], 3, True)
        _, trace = pipeline.stage2_train(fresh, noise, train, dev, s2,
                                         streams[3], streams[4], bcfg)
        wins_b += pac_final < trace[-1]["l_train"]
    ok = wins_a == 5 and wins_b >= 4
    report("criterion 5 (two-stage dynamics)",
           ok, f"stage2 < stage1 in {wins_a}/5, full run beats "
               f"stage-2-only-from-scratch in {wins_b}/5")


def _pretrain_key(config):
    # pretraining reads no task.n_shot
    task = {k: v for k, v in config["task"].items() if k != "n_shot"}
    return json.dumps([task, config["pretrain"], config["model"]], sort_keys=True)


def _outputs(out):
    """A benchmark's output bytes: each run file by name, then the report."""
    return ({p.name: p.read_bytes() for p in sorted((out / "runs").iterdir())},
            (out / "benchmark_report.json").read_bytes())


@pytest.fixture(scope="module")
def default_benchmark(tmp_path_factory):
    """The default ``pactune benchmark``, run once through ``cli.main``, for
    criteria 6, 7 and 8: its config file, output bytes and elapsed seconds,
    and the models it pretrained (for real), keyed for ``shared_pretrain``."""
    tmp = tmp_path_factory.mktemp("default-benchmark")
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps({"out_dir": str(tmp / "bench")}))
    pretrain, pretrained = cli.pretrain_for_task, {}

    def store(config, source):
        pretrained[_pretrain_key(config)] = model = pretrain(config, source)
        return model

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "pretrain_for_task", store)
        start = time.monotonic()
        assert cli.main(["benchmark", "--config", str(cfg_path)]) == cli.EXIT_OK
        elapsed = time.monotonic() - start
    return cfg_path, _outputs(tmp / "bench"), elapsed, pretrained


@pytest.fixture
def shared_pretrain(monkeypatch, default_benchmark):
    """Criterion 7 pretrains the same tasks on the same pretrain and model
    config as the default benchmark: its pretrained models serve both runs."""
    pretrained = default_benchmark[3]
    monkeypatch.setattr(cli, "pretrain_for_task",
                        lambda config, source: pretrained[_pretrain_key(config)])


def _means(report_doc):
    return {task: {m: r["mean_accuracy"] for m, r in by_m.items()}
            for task, by_m in report_doc["results"].items()}


def test_criterion_06_comparative_benchmark(default_benchmark):
    _, (_, report_bytes), elapsed, _ = default_benchmark
    means = _means(json.loads(report_bytes))
    cushions = all(means[t]["pac-tuning"] >= means[t]["vanilla"] - 0.005
                   for t in means)
    strict = sum(means[t]["pac-tuning"] > means[t]["vanilla"] for t in means)
    detail = ", ".join(
        f"{t}: pac {means[t]['pac-tuning']:.3f} vs vanilla {means[t]['vanilla']:.3f}"
        for t in means)
    ok = cushions and strict >= 2 and elapsed < 1800.0
    report("criterion 6 (comparative benchmark)",
           ok, f"{detail}; strict wins {strict}/3, {elapsed:.0f}s")


@pytest.mark.parametrize("n_shot", [50, 20])
def test_criterion_07_stability(default_config, shared_pretrain, n_shot):
    config = cli._deep_merge(default_config, {"task": {"n_shot": n_shot}})
    means = _means(cli.run_benchmark(config)[0])
    worst_gap = max(max(ms.values()) - ms["pac-tuning"] for ms in means.values())
    ok = worst_gap <= 0.02
    report(f"criterion 7 (stability, n_shot={n_shot})",
           ok, f"max gap to best method {worst_gap:.4f}")


def test_criterion_08_benchmark_determinism(default_benchmark):
    # the same config file once more, without the wrapper; the report echoes
    # out_dir, so the second run writes to the same place
    cfg_path, (first, first_report), _, _ = default_benchmark
    out = cfg_path.parent / "bench"
    shutil.rmtree(out)
    assert cli.main(["benchmark", "--config", str(cfg_path)]) == cli.EXIT_OK
    second, second_report = _outputs(out)
    identical = first == second and first_report == second_report
    report("criterion 8 (benchmark determinism)",
           identical, f"{len(first)} JSONL files byte-identical: {identical}")


def test_criterion_09_zero_noise_degeneracy(blobs_setup):
    cfg, pretrained, target = blobs_setup
    train, dev = datasets.few_shot_sample(target, 100, seed=1)
    streams = pipeline.run_streams(1)
    model = models.replace_head(pretrained, streams[0], 3, True)
    noise = bound.init_noise_state(model)
    noise.log_std_backbone[:] = -40.0
    noise.log_std_head[:] = -40.0

    epochs = pipeline.Stage2Config(epochs=200, batch_size=32,
                                   lr_backbone=1e-3, lr_head=1e-2)
    _, tr_pgd = pipeline.stage2_train(
        model, noise, train, dev, epochs,
        np.random.Generator(np.random.PCG64(55)),
        np.random.Generator(np.random.PCG64(66)), cli.build_bound(cfg, m=len(train)))
    _, tr_van = pipeline.vanilla_finetune(
        model, train, dev, epochs, np.random.Generator(np.random.PCG64(55)))
    worst = max(
        max(abs(a["l_train"] - b["l_train"]),
            abs(a["dev_accuracy"] - b["dev_accuracy"]),
            abs(a["dev_mcc"] - b["dev_mcc"]))
        for a, b in zip(tr_pgd, tr_van))
    ok = worst < 1e-9
    report("criterion 9 (zero-noise degeneracy)",
           ok, f"max per-epoch metric deviation {worst:.2e} over 200 epochs")


def test_criterion_10_importance_ranking():
    order = pipeline.importance_ranking([10.0, 1.0, 10.0])
    most_important_one_based = int(order[0]) + 1
    ok = most_important_one_based == 2
    report("criterion 10 (importance ranking)",
           ok, f"variances (10, 1, 10) -> parameter {most_important_one_based} "
               f"ranked most important")
