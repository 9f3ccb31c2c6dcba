import json
import math
import pickle
import re
import tracemalloc
from dataclasses import asdict

import helpers
import numpy as np
import pytest

from pactune import datasets, models, pipeline
from pactune.bound import (AutoGamma, BoundConfig, FixedK, KTracker, RunningK,
                           init_noise_state, pac_objective)
from pactune.models import ParamGroup, StepWorkspace
from pactune.optim import AdamState, Constant, StepDecay, adam_step
from pactune.pipeline import (DivergenceError, Stage1Config, Stage2Config,
                              importance_ranking, metrics, noise_injection_finetune,
                              run_finetune, stage1_train, stage2_train,
                              vanilla_finetune)


@pytest.fixture(scope="module")
def toy_task():
    pair = datasets.TransferPair(
        source=datasets.DatasetSpec("blobs", n=600, seed=1, classes=2, dim=3,
                                    separation=2.5, class_std=1.0),
        target=datasets.DatasetSpec("blobs", n=260, seed=2, classes=2, dim=3,
                                    separation=2.5, class_std=1.0,
                                    rotation_degrees=25.0),
    )
    source = datasets.generate(pair.source)
    pretrained = pipeline.pretrain_model(source, [3, 10, 2], epochs=25,
                                         batch_size=32, lr_backbone=3e-3,
                                         lr_head=1e-2, seed=4)
    target = datasets.generate(pair.target)
    train, dev = datasets.few_shot_sample(target, 60, seed=5)
    return pretrained, train, dev


def fresh_head(pretrained, seed, n_classes=2, freeze=False):
    """The pretrained backbone under a new head, as ``run_finetune`` builds it."""
    return models.replace_head(pretrained, np.random.default_rng(seed), n_classes, freeze)


def small_stage1(**kw):
    defaults = dict(epochs=25, batch_size=32, lr_backbone=1e-3, lr_head=1e-2)
    defaults.update(kw)
    return Stage1Config(**defaults)


class TestMetrics:
    def test_perfect(self):
        out = metrics([0, 1, 1, 0], [0, 1, 1, 0])
        assert out == {"accuracy": 1.0, "mcc": 1.0}

    def test_single_class_predictions_zero_mcc(self):
        out = metrics([1, 1, 1, 1], [0, 1, 0, 1])
        assert out["mcc"] == 0.0
        assert out["accuracy"] == 0.5

    def test_confusion_hand_case(self):
        # TP=3, TN=4, FP=1, FN=2 -> 10 / sqrt(600)
        preds = [1] * 3 + [0] * 4 + [1] * 1 + [0] * 2
        labels = [1] * 3 + [0] * 4 + [0] * 1 + [1] * 2
        assert metrics(preds, labels)["mcc"] == pytest.approx(
            10.0 / math.sqrt(600.0), abs=1e-12)

    def test_multiclass_generalized(self):
        assert metrics([0, 1, 2], [0, 1, 2]) == {"accuracy": 1.0, "mcc": 1.0}
        out = metrics([0, 0, 0], [0, 1, 2])
        assert out["mcc"] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            metrics([0, 1], [0])

    def test_binary_matches_confusion_count_oracle_bitwise(self):
        def binary_mcc(preds, labels):
            tp = int(np.sum((preds == 1) & (labels == 1)))
            tn = int(np.sum((preds == 0) & (labels == 0)))
            fp = int(np.sum((preds == 1) & (labels == 0)))
            fn = int(np.sum((preds == 0) & (labels == 1)))
            denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
            return 0.0 if denom == 0 else (tp * tn - fp * fn) / math.sqrt(denom)

        rng = np.random.default_rng(0)
        cases = [([], []), ([1] * 5, [1] * 5), ([0] * 7, [0] * 7), ([1] * 4, [0] * 4),
                 ([0] * 3, [1] * 3), ([0, 1, 0], [0] * 3), ([1] * 6, [0, 1] * 3)]
        for _ in range(2000):
            n = int(rng.integers(1, 1500))
            p_pred, p_label = rng.uniform(size=2)
            cases.append((rng.uniform(size=n) < p_pred, rng.uniform(size=n) < p_label))
        for preds, labels in cases:
            preds = np.asarray(preds, dtype=np.int64)
            labels = np.asarray(labels, dtype=np.int64)
            assert metrics(preds, labels)["mcc"].hex() == \
                float(binary_mcc(preds, labels)).hex()


    @staticmethod
    def add_at_metrics(preds, labels):
        """The metrics as first written: ``np.add.at`` counts and a mean."""
        n = preds.size
        accuracy = float(np.mean(preds == labels)) if n else 0.0
        k = int(max(preds.max(initial=0), labels.max(initial=0))) + 1 if n else 0
        confusion = np.zeros((k, k), dtype=np.int64)
        np.add.at(confusion, (labels, preds), 1)
        t_k, p_k = confusion.sum(axis=1), confusion.sum(axis=0)
        num = int(np.trace(confusion)) * n - int(t_k @ p_k)
        den_sq = (n * n - int(p_k @ p_k)) * (n * n - int(t_k @ t_k))
        return {"accuracy": accuracy,
                "mcc": 0.0 if den_sq == 0 else num / math.sqrt(den_sq)}

    def test_equals_add_at_oracle_bitwise(self):
        rng = np.random.default_rng(7)
        cases = [(np.zeros(0, np.int64), np.zeros(0, np.int64))]
        for k in range(1, 6):
            for _ in range(300):
                n = int(rng.integers(1, 1200))
                labels = rng.integers(0, k, n)
                # mostly right, as a trained model's predictions are
                preds = np.where(rng.uniform(size=n) < rng.uniform(), labels,
                                 rng.integers(0, k, n))
                cases.append((preds, labels))
        for preds, labels in cases:
            got, want = metrics(preds, labels), self.add_at_metrics(preds, labels)
            assert {key: float(v).hex() for key, v in got.items()} == \
                {key: float(v).hex() for key, v in want.items()}

    @pytest.mark.parametrize("k", range(2, 7))
    def test_equals_confusion_matrix_oracle_bitwise(self, k):
        rng = np.random.default_rng(k)
        for _ in range(300):
            n = int(rng.integers(1, 1200))
            labels = rng.integers(0, k, n)
            preds = np.where(rng.uniform(size=n) < rng.uniform(), labels,
                             rng.integers(0, k, n))
            got, want = metrics(preds, labels), helpers.confusion_metrics(preds, labels)
            assert {key: float(v).hex() for key, v in got.items()} == \
                {key: float(v).hex() for key, v in want.items()}

    def test_memory_grows_with_classes_not_their_square(self):
        # labels reaching 2,999, as a CSV task's may; a 3,000 x 3,000 int64
        # confusion matrix alone would take 72 MB
        rng = np.random.default_rng(0)
        labels = rng.permutation(3000)
        preds = np.where(rng.uniform(size=3000) < 0.5, labels, rng.integers(0, 3000, 3000))
        tracemalloc.start()
        try:
            metrics(preds, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("preds, labels", [([0, 1, 2], [0, -1, 2]),
                                               ([0, -1, 2], [0, 1, 2])])
    def test_negative_index_raises(self, preds, labels):
        with pytest.raises(ValueError, match="nonnegative"):
            metrics(preds, labels)


class TestImportanceRanking:
    def test_paper_style_example(self):
        # variances (10, 1, 10): the middle parameter is the most important
        order = importance_ranking([10.0, 1.0, 10.0])
        assert order.tolist() == [1, 0, 2]
        assert order[0] + 1 == 2  # 1-based: parameter 2 ranks first

    def test_all_equal_identity(self):
        assert importance_ranking([2.0, 2.0, 2.0, 2.0]).tolist() == [0, 1, 2, 3]

    def test_matches_independent_sort(self):
        rng = np.random.default_rng(0)
        var = rng.uniform(0.1, 5.0, size=50)
        oracle = [i for _, i in sorted((v, i) for i, v in enumerate(var))]
        assert importance_ranking(var).tolist() == oracle

    def test_noise_state_input(self, toy_task):
        pretrained, train, dev = toy_task
        noise = init_noise_state(pretrained)
        order = importance_ranking(noise.variances())
        n = noise.log_std_backbone.size + noise.log_std_head.size
        assert sorted(order.tolist()) == list(range(n))


class TestStage1:
    def test_zero_lr_is_noop_with_one_trace_entry(self, toy_task):
        pretrained, train, dev = toy_task
        model = fresh_head(pretrained, 0)
        noise = init_noise_state(model)
        cfg = Stage1Config(epochs=1, batch_size=32, lr_backbone=0.0, lr_head=0.0,
                           lr_noise_backbone=0.0, lr_noise_head=Constant(0.0),
                           decay_weights=False)
        m2, n2, trace = stage1_train(model, noise, train, dev, cfg,
                                     BoundConfig(m=len(train)),
                                     np.random.default_rng(1),
                                     np.random.default_rng(2))
        assert len(trace) == 1
        for a, b in zip(m2.weights + m2.biases, model.weights + model.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(n2.log_std_backbone, noise.log_std_backbone)
        assert n2.prior_log_var(ParamGroup.HEAD) == noise.prior_log_var(ParamGroup.HEAD)

    def test_head_variance_moves_and_terms_stay_finite(self, toy_task):
        pretrained, train, dev = toy_task
        model = fresh_head(pretrained, 0)
        noise = init_noise_state(model)
        init_mean_var = noise.mean_variance(ParamGroup.HEAD)
        _, learned, trace = stage1_train(
            model, noise, train, dev, small_stage1(), BoundConfig(m=len(train)),
            np.random.default_rng(1), np.random.default_rng(2))
        assert abs(learned.mean_variance(ParamGroup.HEAD) - init_mean_var) > 1e-6
        assert all(np.isfinite(e["j_total"]) for e in trace)

    def test_trace_integrity(self, toy_task):
        pretrained, train, dev = toy_task
        model = fresh_head(pretrained, 3)
        noise = init_noise_state(model)
        _, _, trace = stage1_train(
            model, noise, train, dev, small_stage1(epochs=5),
            BoundConfig(m=len(train)), np.random.default_rng(1),
            np.random.default_rng(2))
        for e in trace:
            assert abs(e["j_total"] - (e["l_train"] + e["l_pac"])) < 1e-10

    def test_divergence_guard_names_epoch(self, toy_task):
        pretrained, train, dev = toy_task
        model = fresh_head(pretrained, 3)
        noise = init_noise_state(model)
        cfg = small_stage1(epochs=3, lr_noise_backbone=1e10,
                           lr_noise_head=Constant(1e10))
        with pytest.raises(DivergenceError, match="epoch"):
            stage1_train(model, noise, train, dev, cfg, BoundConfig(m=len(train)),
                         np.random.default_rng(1), np.random.default_rng(2))

    def test_variance_underflow_is_a_divergence(self, toy_task):
        # large noise steps drive log-stds below about -372, where exp(2p)
        # is 0 in float64 and the KL cannot be evaluated
        pretrained, train, dev = toy_task
        model = fresh_head(pretrained, 3)
        noise = init_noise_state(model)
        cfg = small_stage1(epochs=20, lr_noise_backbone=100.0,
                           lr_noise_head=Constant(100.0))
        with pytest.raises(DivergenceError, match="variance underflowed"):
            stage1_train(model, noise, train, dev, cfg, BoundConfig(m=len(train)),
                         np.random.default_rng(1), np.random.default_rng(2))

    def test_variance_overflow_is_a_divergence(self, toy_task):
        # a frozen first layer leaves the backbone group empty; one step at a
        # huge noise rate takes its prior log-variance to inf, and as the last
        # step of stage 1 no later objective would see it
        pretrained, train, dev = toy_task
        model = fresh_head(pretrained, 3, freeze=True)
        noise = init_noise_state(model)
        cfg = small_stage1(epochs=1, batch_size=len(train), lr_noise_backbone=1e308)
        with pytest.raises(DivergenceError, match="epoch 0, batch 0: a learned variance "
                                                  "underflowed to 0 or overflowed$"):
            stage1_train(model, noise, train, dev, cfg, BoundConfig(m=len(train)),
                         np.random.default_rng(1), np.random.default_rng(2))

    def test_anchor_mismatch_rejected(self, toy_task):
        pretrained, train, dev = toy_task
        model = fresh_head(pretrained, 3)
        # a noise state made for a model with one more class
        other = fresh_head(pretrained, 3, n_classes=3)
        noise = init_noise_state(other)
        with pytest.raises(ValueError, match="head"):
            stage1_train(model, noise, train, dev, small_stage1(),
                         BoundConfig(m=len(train)), np.random.default_rng(1),
                         np.random.default_rng(2))


class TestStage2AndBaselines:
    def test_minus_forty_noise_equals_vanilla(self, toy_task):
        pretrained, train, dev = toy_task
        model = fresh_head(pretrained, 0)
        noise = init_noise_state(model)
        noise.log_std_backbone[:] = -40.0
        noise.log_std_head[:] = -40.0
        cfg = Stage2Config(epochs=15, batch_size=32)
        _, trace_pgd = stage2_train(model, noise, train, dev, cfg,
                                    np.random.default_rng(10),
                                    np.random.default_rng(11), BoundConfig(m=len(train)))
        van, trace_van = vanilla_finetune(model, train, dev, cfg,
                                          np.random.default_rng(10))
        for a, b in zip(trace_pgd, trace_van):
            assert abs(a["l_train"] - b["l_train"]) < 1e-9
            assert abs(a["dev_accuracy"] - b["dev_accuracy"]) < 1e-9
            assert abs(a["dev_mcc"] - b["dev_mcc"]) < 1e-9
        # zero-sigma noise injection draws its noise but adds exactly zero,
        # so the shared loop and step must reproduce vanilla bit for bit
        inj, trace_inj = noise_injection_finetune(model, train, dev, cfg, 0.0,
                                                  np.random.default_rng(10),
                                                  np.random.default_rng(11))
        assert trace_inj == trace_van
        for a, b in zip(inj.weights + inj.biases, van.weights + van.biases):
            assert np.array_equal(a, b)

    def test_stage2_fits_better_than_stage1(self, toy_task):
        pretrained, train, dev = toy_task
        record, _, _ = run_finetune(
            pretrained, train, dev, "pac-tuning", seed=1,
            stage1=small_stage1(epochs=30), stage2=Stage2Config(epochs=30),
            bound_cfg=BoundConfig(m=len(train)))
        stage1_final = record.epochs[record.stage_boundary - 1]["l_train"]
        stage2_final = record.epochs[-1]["l_train"]
        assert stage2_final < stage1_final

    def test_run_record_shape(self, toy_task):
        pretrained, train, dev = toy_task
        record, _, noise = run_finetune(
            pretrained, train, dev, "pac-tuning", seed=2,
            stage1=small_stage1(epochs=4), stage2=Stage2Config(epochs=3),
            bound_cfg=BoundConfig(m=len(train)))
        assert record.stage_boundary == 4
        assert [e["epoch"] for e in record.epochs] == list(range(7))
        assert noise is not None
        assert record.noise_summary["n_head"] == noise.log_std_head.size
        assert record.final["epochs"] == 7

    def test_unknown_method_rejected(self, toy_task):
        pretrained, train, dev = toy_task
        with pytest.raises(ValueError, match="method"):
            run_finetune(pretrained, train, dev, "dropout", seed=1,
                         stage1=small_stage1(), stage2=Stage2Config(),
                         bound_cfg=BoundConfig(m=len(train)))

    def test_baselines_get_total_epoch_budget(self, toy_task):
        pretrained, train, dev = toy_task
        record, _, noise = run_finetune(
            pretrained, train, dev, "vanilla", seed=3,
            stage1=small_stage1(epochs=5), stage2=Stage2Config(epochs=4),
            bound_cfg=BoundConfig(m=len(train)))
        assert record.final["epochs"] == 9
        assert record.stage_boundary == 0
        assert noise is None

    @pytest.mark.parametrize("label", ["pretraining", "stage 2",
                                       "vanilla fine-tuning", "noise injection"])
    def test_divergence_names_label_and_epoch(self, toy_task, label):
        pretrained, train, dev = toy_task
        model = fresh_head(pretrained, 3)
        cfg = Stage2Config(epochs=3, lr_backbone=1e308, lr_head=1e308)
        data_rng, noise_rng = np.random.default_rng(1), np.random.default_rng(2)
        # batch 0's update makes θ infinite, so batch 1's forward pass fails
        with pytest.raises(DivergenceError,
                           match=f"^{label} diverged at epoch 0, batch 1: layer 0 "):
            if label == "pretraining":
                pipeline.pretrain_model(train, [3, 10, 2], epochs=3, batch_size=32,
                                        lr_backbone=1e308, lr_head=1e308, seed=4)
            elif label == "stage 2":
                noise = init_noise_state(model)
                stage2_train(model, noise, train, dev, cfg, data_rng, noise_rng,
                             BoundConfig(m=len(train)))
            elif label == "vanilla fine-tuning":
                vanilla_finetune(model, train, dev, cfg, data_rng)
            else:
                noise_injection_finetune(model, train, dev, cfg, 0.01, data_rng,
                                         noise_rng)

    def test_noise_injection_runs(self, toy_task):
        pretrained, train, dev = toy_task
        record, _, _ = run_finetune(
            pretrained, train, dev, "noise-injection", seed=3,
            stage1=small_stage1(epochs=3), stage2=Stage2Config(epochs=3),
            bound_cfg=BoundConfig(m=len(train)), noise_sigma=0.02)
        assert record.final["epochs"] == 6
        assert all(np.isfinite(e["l_train"]) for e in record.epochs)


class TestInputContract:
    """The loop checks once that its datasets fit the model; no step checks a
    batch, so data that does not fit must stop the loop before its first step."""

    @pytest.mark.parametrize("split", ["train", "dev"])
    @pytest.mark.parametrize("defect, match", [
        ("label", "data of width 3, labels below 3, does not fit layers [3, 10, 2]"),
        ("width", "data of width 4, labels below 2, does not fit layers [3, 10, 2]"),
    ])
    def test_unfit_data_raises_before_the_first_step(self, toy_task, split, defect,
                                                     match):
        pretrained, train, dev = toy_task
        data = {"train": train, "dev": dev}
        x, y = data[split].x, data[split].y.copy()
        if defect == "label":
            y[-1] = 2  # the model has classes 0 and 1
        else:
            x = np.hstack([x, x[:, :1]])
        data[split] = datasets.Dataset(x=x, y=y)
        model = fresh_head(pretrained, 0)
        theta = model.theta.copy()
        steps = []

        def step(work, x, y):
            steps.append(len(x))
            return pipeline.descent_step(work, x, y)

        with pytest.raises(ValueError, match=re.escape(f"test: {split} {match}")):
            pipeline._descend(model, data["train"], data["dev"], Stage2Config(epochs=2),
                              np.random.default_rng(0), step, "test", weight_decay=True)
        assert steps == []
        assert np.array_equal(model.theta, theta)


class TestDeterminismAndRecords:
    def test_identical_seed_identical_record(self, toy_task):
        pretrained, train, dev = toy_task

        def run():
            record, _, _ = run_finetune(
                pretrained, train, dev, "pac-tuning", seed=7,
                stage1=small_stage1(epochs=6), stage2=Stage2Config(epochs=4),
                bound_cfg=BoundConfig(m=len(train)))
            return json.dumps(asdict(record), sort_keys=True)

        assert run() == run()

    def test_jsonl_roundtrip(self, toy_task, tmp_path):
        pretrained, train, dev = toy_task
        record, _, _ = run_finetune(
            pretrained, train, dev, "pac-tuning", seed=8,
            stage1=small_stage1(epochs=3), stage2=Stage2Config(epochs=2),
            bound_cfg=BoundConfig(m=len(train)), config_echo={"note": "test"})
        path = tmp_path / "run.jsonl"
        record.to_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 6
        summary = lines[-1]
        assert summary["type"] == "summary"
        assert summary["config"] == {"note": "test"}
        assert summary["final"]["dev_accuracy"] == record.final["dev_accuracy"]
        assert lines[0]["epoch"] == 0


class TestNoiseLearningContrast:
    def test_bound_term_sustains_variance(self, toy_task):
        # minimizing the training loss alone keeps shrinking the noise toward
        # zero; the full objective equilibrates it near the prior. The regimes
        # only separate once training has run long enough for the loss-only
        # variant to pass below the bound-held level (single-seed smoke version
        # of the acceptance-suite check).
        pretrained, train, dev = toy_task
        model = fresh_head(pretrained, 0)
        noise = init_noise_state(model)
        init_mean = np.mean(np.concatenate([
            noise.variances(ParamGroup.BACKBONE), noise.variances(ParamGroup.HEAD)]))

        def learned_mean(weight):
            cfg = small_stage1(epochs=300, l_pac_weight=weight)
            _, learned, _ = stage1_train(
                model, noise, train, dev, cfg, BoundConfig(m=len(train)),
                np.random.default_rng(1), np.random.default_rng(2))
            return np.mean(np.concatenate([
                learned.variances(ParamGroup.BACKBONE),
                learned.variances(ParamGroup.HEAD)]))

        loss_only = learned_mean(0.0)
        full = learned_mean(1.0)
        assert loss_only <= init_mean
        assert loss_only < full


class TestStepWorkspace:
    """The loop's once-built workspace against a loop that rebuilds everything,
    with and without weight decay: each trainer's own flag must reach it."""

    @pytest.fixture
    def run(self, toy_task):
        pretrained, train, dev = toy_task
        assert len(train) % 32 != 0  # a ragged last batch

        def start(freeze):
            model = fresh_head(pretrained, 0, freeze=freeze)
            noise = init_noise_state(model)
            noise.params[:] += 0.2 * np.random.default_rng(1).standard_normal(
                noise.params.size)
            return model, noise, train, dev

        return start

    @staticmethod
    def rngs():
        return np.random.default_rng(10), np.random.default_rng(11)

    @staticmethod
    def assert_same(got, want):
        (model, trace), (ref_model, ref_trace) = got, want
        assert np.array_equal(model.theta, ref_model.theta)
        assert trace == ref_trace

    @pytest.mark.parametrize("decay", [True, False])
    @pytest.mark.parametrize("freeze", [True, False])
    def test_plain(self, run, freeze, decay):
        model, _, train, dev = run(freeze)
        cfg = Stage2Config(epochs=3, lr_backbone=3e-3, lr_head=2e-2, weight_decay=decay)
        self.assert_same(
            vanilla_finetune(model, train, dev, cfg, self.rngs()[0]),
            helpers.reference_descend(model, train, dev, cfg, self.rngs()[0],
                                      helpers.plain_step(cfg)))

    @pytest.mark.parametrize("decay", [True, False])
    @pytest.mark.parametrize("freeze", [True, False])
    def test_pgd(self, run, freeze, decay):
        model, noise, train, dev = run(freeze)
        before = noise.copy()
        cfg = Stage2Config(epochs=3, weight_decay=decay)
        bound_cfg = BoundConfig(m=len(train))
        data_rng, noise_rng = self.rngs()
        got = stage2_train(model, noise, train, dev, cfg, data_rng, noise_rng, bound_cfg,
                           epoch_offset=4)
        data_rng, noise_rng = self.rngs()
        self.assert_same(got, helpers.reference_descend(
            model, train, dev, cfg, data_rng, helpers.pgd_step(cfg, noise, noise_rng),
            stage=2, epoch_offset=4,
            diagnostics=helpers.stage2_diagnostics(noise, bound_cfg.delta, len(train))))
        assert np.array_equal(noise.params, before.params)

    @pytest.mark.parametrize("decay", [True, False])
    @pytest.mark.parametrize("freeze", [True, False])
    def test_random_layer_noise(self, run, freeze, decay):
        model, _, train, dev = run(freeze)
        cfg = Stage2Config(epochs=3, weight_decay=decay)
        data_rng, noise_rng = self.rngs()
        got = noise_injection_finetune(model, train, dev, cfg, 0.05, data_rng, noise_rng)
        data_rng, noise_rng = self.rngs()
        self.assert_same(got, helpers.reference_descend(
            model, train, dev, cfg, data_rng,
            helpers.random_layer_step(cfg, 0.05, noise_rng)))

    @pytest.mark.parametrize("decay", [True, False])
    @pytest.mark.parametrize("k", [RunningK(), FixedK(0.5)], ids=["running-k", "fixed-k"])
    @pytest.mark.parametrize("freeze", [True, False])
    def test_stage1(self, run, freeze, decay, k):
        # the head's noise rate steps every 2 updates, so its vector is rebuilt
        model, noise, train, dev = run(freeze)
        cfg = small_stage1(epochs=3, lr_noise_head=StepDecay(0.5, 0.7, 2, 0.01),
                           decay_weights=decay)
        bound_cfg = BoundConfig(m=len(train), gamma=AutoGamma(0.01, 10.0), k=k)
        data_rng, noise_rng = self.rngs()
        model_out, learned, trace = stage1_train(model, noise, train, dev, cfg,
                                                 bound_cfg, data_rng, noise_rng)
        data_rng, noise_rng = self.rngs()
        ref_noise = noise.copy()
        step, diagnostics = helpers.stage1_step(cfg, bound_cfg, ref_noise, noise_rng)
        self.assert_same((model_out, trace), helpers.reference_descend(
            model, train, dev, cfg, data_rng, step, stage=1, diagnostics=diagnostics))
        assert np.array_equal(learned.params, ref_noise.params)

    def test_objective_gradients_live_in_the_workspace(self, run):
        model, noise, train, _ = run(True)
        work = StepWorkspace(model, 1e-3, 1e-2)
        cfg = BoundConfig(m=len(train))
        rng = np.random.default_rng(3)
        x, y = train.x[:32], train.y[:32]
        n = model.layout.trainable_size
        k, var = KTracker(cfg.k).value, noise.variances()
        _, first = pac_objective(work, noise, x, y, cfg, rng.standard_normal(n), k, var)
        kept = (work.grad.copy(), first.copy())
        _, second = pac_objective(work, noise, x, y, cfg, rng.standard_normal(n), k, var)
        # dJ/dw lives in the workspace and the noise gradient in the noise
        # state, where the next step's replace them
        assert first is second is noise.grad
        assert not np.array_equal(work.grad, kept[0])
        assert not np.array_equal(second, kept[1])
        buffers = (work.grad, work.noisy, work.lr, model.theta, noise.params)
        assert not any(np.shares_memory(second, b) for b in buffers)
        # the loss gradient stays in the workspace; no array is handed out
        loss = models.loss_and_grads(work, work.params, x, y)
        assert isinstance(loss, float)


class TestEpochSlices:
    """Each epoch's rows gathered once and sliced per step, against the
    reference loop, which gathers every batch's rows itself: bit for bit, for
    every batch size up to 32, each with a 1-row last batch, and with a frozen
    first layer. A BLAS whose rows of a product depend on the rows around them,
    or on where they sit in memory, fails here."""

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(8)
        return (rng.standard_normal((97, 6)), rng.integers(0, 3, 97),
                datasets.Dataset(rng.standard_normal((50, 6)), rng.integers(0, 3, 50)))

    @staticmethod
    def start(data, size, activation):
        x, y, dev = data
        n = size * (96 // size) + 1  # the last batch holds 1 row
        model = models.init_weights([6, 24, 12, 3], np.random.default_rng(9), activation,
                                    freeze_first_layer=True)
        return model, datasets.Dataset(x[:n].copy(), y[:n]), dev

    @staticmethod
    def assert_same(got, want):
        (model, trace), (ref_model, ref_trace) = got, want
        assert np.array_equal(model.theta, ref_model.theta)
        assert trace == ref_trace

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("size", range(1, 33))
    def test_plain(self, data, size, activation):
        model, train, dev = self.start(data, size, activation)
        cfg = Stage2Config(epochs=2, batch_size=size, lr_backbone=3e-2, lr_head=5e-2)
        self.assert_same(
            vanilla_finetune(model, train, dev, cfg, np.random.default_rng(4)),
            helpers.reference_descend(model, train, dev, cfg, np.random.default_rng(4),
                                      helpers.plain_step(cfg)))

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("size", [1, 2, 17, 32])
    def test_noise_injection(self, data, monkeypatch, size, activation):
        model, train, dev = self.start(data, size, activation)
        cfg = Stage2Config(epochs=4, batch_size=size)
        frozen = slice(*model.layout.layers[0][:2])
        picked_first, real = [], pipeline.random_layer_noise_step

        def step(work, *args):  # did the step's noise go into the frozen layer 0?
            loss = real(work, *args)
            picked_first.append(not np.array_equal(work.noisy[frozen],
                                                   work.model.theta[frozen]))
            return loss

        monkeypatch.setattr(pipeline, "random_layer_noise_step", step)
        self.assert_same(
            noise_injection_finetune(model, train, dev, cfg, 0.05, np.random.default_rng(4),
                                     np.random.default_rng(5)),
            helpers.reference_descend(model, train, dev, cfg, np.random.default_rng(4),
                                      helpers.random_layer_step(cfg, 0.05,
                                                                np.random.default_rng(5))))
        assert any(picked_first) and not all(picked_first)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("size", [1, 2, 32])
    def test_perturbed_and_stage1(self, data, size, activation):
        model, train, dev = self.start(data, size, activation)
        noise = init_noise_state(model)
        cfg2 = Stage2Config(epochs=2, batch_size=size)
        bound_cfg = BoundConfig(m=len(train))
        self.assert_same(
            stage2_train(model, noise, train, dev, cfg2, np.random.default_rng(4),
                         np.random.default_rng(5), bound_cfg),
            helpers.reference_descend(
                model, train, dev, cfg2, np.random.default_rng(4),
                helpers.pgd_step(cfg2, noise, np.random.default_rng(5)), stage=2,
                diagnostics=helpers.stage2_diagnostics(noise, bound_cfg.delta, len(train))))
        cfg1 = small_stage1(epochs=2, batch_size=size)
        model_out, learned, trace = stage1_train(model, noise, train, dev, cfg1, bound_cfg,
                                                 np.random.default_rng(4),
                                                 np.random.default_rng(5))
        ref_noise = noise.copy()
        step, diagnostics = helpers.stage1_step(cfg1, bound_cfg, ref_noise,
                                                np.random.default_rng(5))
        self.assert_same((model_out, trace), helpers.reference_descend(
            model, train, dev, cfg1, np.random.default_rng(4), step, stage=1,
            diagnostics=diagnostics))
        assert np.array_equal(learned.params, ref_noise.params)

    def test_non_finite_row_names_the_batch_that_holds_it(self, data):
        model, train, dev = self.start(data, 8, "tanh")
        train.x[50, 2] = np.inf
        batch = int(np.flatnonzero(np.random.default_rng(0).permutation(len(train)) == 50)[0]
                    ) // 8
        want = (f"^vanilla fine-tuning diverged at epoch 0, batch {batch}: "
                "layer 0 output is not finite$")
        with pytest.raises(DivergenceError, match=want):
            vanilla_finetune(model, train, dev, Stage2Config(epochs=2, batch_size=8),
                             np.random.default_rng(0))


class TestAppliedGradient:
    """After one step of each kind, ``work.grad`` holds the gradient
    ``work.adam`` applied: replaying the update from the loop's start with
    ``work.grad`` gives the loop's θ and moments bit for bit."""

    @pytest.mark.parametrize("freeze", [True, False])
    @pytest.mark.parametrize("kind", ["plain", "perturbed", "random-layer", "stage 1"])
    def test_one_step(self, toy_task, monkeypatch, kind, freeze):
        pretrained, train, dev = toy_task
        model = fresh_head(pretrained, 0, freeze=freeze)
        noise = init_noise_state(model)
        works = []

        class Recorded(StepWorkspace):
            def __init__(self, *args):
                super().__init__(*args)
                works.append(self)

        monkeypatch.setattr(pipeline, "StepWorkspace", Recorded)
        rng = np.random.default_rng(0)
        one_step = Stage2Config(epochs=1, batch_size=len(train))
        if kind == "plain":
            out, _ = vanilla_finetune(model, train, dev, one_step, rng)
        elif kind == "perturbed":
            out, _ = stage2_train(model, noise, train, dev, one_step, rng, rng,
                                  BoundConfig(m=len(train)))
        elif kind == "random-layer":
            out, _ = noise_injection_finetune(model, train, dev, one_step, 0.05, rng, rng)
        else:
            out, _, _ = stage1_train(model, noise, train, dev,
                                     small_stage1(epochs=1, batch_size=len(train)),
                                     BoundConfig(m=len(train)), rng, rng)
        [work] = works
        replay = AdamState(work.trainable.size)
        theta = model.theta[model.layout.start:].copy()
        adam_step(replay, theta, work.grad, work.lr, work.lr_decay)
        assert work.adam.t == replay.t == 1
        assert np.array_equal(out.theta[model.layout.start:], theta)
        assert np.array_equal(work.adam.m, replay.m)
        assert np.array_equal(work.adam.v, replay.v)


class TestDevPass:
    """The loop's evaluation, run on the workspace's buffers and, for a frozen
    first layer, on that layer's output computed once, against ``evaluate``
    on the model at every epoch."""

    @pytest.fixture
    def start(self, toy_task):
        pretrained, train, dev = toy_task
        assert len(dev) % 32 != 0

        def start(freeze, activation):
            base = models.MLPClassifier(pretrained.layer_sizes, pretrained.theta.copy(),
                                        activation)
            return fresh_head(base, 0, freeze=freeze), train, dev

        return start

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("freeze", [True, False])
    def test_epoch_metrics_equal_the_reference_loop(self, start, freeze, activation):
        model, train, dev = start(freeze, activation)
        cfg = Stage2Config(epochs=6, lr_backbone=3e-2, lr_head=5e-2)
        got_model, got = vanilla_finetune(model, train, dev, cfg, np.random.default_rng(4))
        ref_model, want = helpers.reference_descend(
            model, train, dev, cfg, np.random.default_rng(4), helpers.plain_step(cfg))
        assert np.array_equal(got_model.theta, ref_model.theta)
        assert [(e["dev_accuracy"], e["dev_mcc"]) for e in got] == \
            [(e["dev_accuracy"], e["dev_mcc"]) for e in want]
        assert len({e["dev_mcc"] for e in got}) > 1  # the metrics do move

    @pytest.mark.parametrize("freeze", [True, False])
    def test_workspace_evaluation_follows_theta(self, start, freeze):
        model, _, dev = start(freeze, "tanh")
        work = StepWorkspace(model, 1e-3, 1e-2, eval_x=dev.x)
        rng = np.random.default_rng(2)
        for _ in range(4):
            assert pipeline.evaluate(model, dev, work) == pipeline.evaluate(model, dev)
            assert work.eval_out[-1].tobytes() == model.forward(dev.x).tobytes()
            work.trainable += 0.3 * rng.standard_normal(work.trainable.size)
        assert not any(np.shares_memory(model.theta, b) for b in work.eval_out)

    def test_frozen_features_are_checked_at_the_first_evaluation(self, start):
        model, train, dev = start(True, "tanh")
        bad = datasets.Dataset(x=dev.x.copy(), y=dev.y)
        bad.x[3, 0] = np.inf
        steps = []

        def step(work, x, y):
            steps.append(len(x))
            return 0.0

        # a divergence like a step's, named by the epoch's last batch
        last = (len(train) - 1) // Stage2Config().batch_size
        want = f"^test diverged at epoch 0, batch {last}: layer 0 output is not finite$"
        with pytest.raises(DivergenceError, match=want):
            pipeline._descend(model, train, bad, Stage2Config(epochs=3),
                              np.random.default_rng(0), step, "test", weight_decay=True)
        assert sum(steps) == len(train)  # one epoch's steps ran first

    def test_pretrained_model_pickles_no_larger_than_a_fresh_one(self, toy_task):
        pretrained = toy_task[0]
        fresh = models.MLPClassifier(pretrained.layer_sizes)
        assert len(pickle.dumps(pretrained)) <= len(pickle.dumps(fresh))
        tuned, _ = vanilla_finetune(fresh_head(pretrained, 0, freeze=True), *toy_task[1:],
                                    Stage2Config(epochs=1), np.random.default_rng(0))
        assert len(pickle.dumps(tuned)) <= len(pickle.dumps(
            models.MLPClassifier(tuned.layer_sizes, freeze_first_layer=True)))
