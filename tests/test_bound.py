import json
import math
import re

import numpy as np
import pytest
from helpers import mc_kl

from pactune import autodiff as ad
from pactune import bound, datasets, kernels, models, pipeline
from pactune.bound import (AutoGamma, BoundConfig, FixedGamma, FixedK, KTracker,
                           RunningK, init_noise_state, kl_diag_vs_isotropic, l_pac,
                           optimal_gamma, pac_objective)
from pactune.models import ParamGroup, StepWorkspace
from pactune.pgd import loss_and_grads


class TestKL:
    def test_identical_distributions_zero(self):
        mu = np.array([1.0, -2.0, 0.5])
        assert kl_diag_vs_isotropic(mu, np.full(3, 1.7), mu, 1.7) == 0.0

    def test_d1_case_matches_mc_oracle(self):
        # 1 - 0.5 ln 2; cross-checked against the Monte-Carlo estimator
        cf = kl_diag_vs_isotropic([1.0], [2.0], [0.0], 1.0)
        assert cf == pytest.approx(1.0 - 0.5 * math.log(2.0), abs=1e-15)
        mc = mc_kl([1.0], [2.0], [0.0], 1.0, n_samples=1_000_000, seed=0)
        assert abs(cf - mc) < 2e-3

    def test_d2_mean_offset_case(self):
        assert kl_diag_vs_isotropic([3.0, 4.0], [1.0, 1.0], [0.0, 0.0], 1.0) \
            == pytest.approx(12.5, abs=1e-12)

    def test_nonnegative_on_random_states(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            d = int(rng.integers(1, 6))
            kl = kl_diag_vs_isotropic(
                rng.standard_normal(d), np.exp(rng.standard_normal(d)),
                rng.standard_normal(d), float(np.exp(rng.standard_normal())))
            assert kl >= 0.0

    def test_rounding_at_the_prior_is_not_negative(self):
        # a zero-weight model's head noise at init: each log-std is the floor's
        # ln 1e-4 plus the head's ln 10, and the prior is their mean variance;
        # the formula's terms cancel to -5.68e-14 in float64, which l_pac rejects
        var = np.exp(2.0 * np.full(39, math.log(1e-4) + math.log(10.0)))
        var_p = math.exp(math.log(float(np.mean(var))))
        kl = kl_diag_vs_isotropic(np.zeros(39), var, np.zeros(39), var_p)
        assert kl == 0.0
        assert l_pac(kl, BoundConfig(m=20), 1.0, 1.0) > 0.0

    def test_zero_only_at_identical(self):
        kl = kl_diag_vs_isotropic([0.0], [1.0 + 1e-6], [0.0], 1.0)
        assert kl > 0.0

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            kl_diag_vs_isotropic([0.0], [0.0], [0.0], 1.0)
        with pytest.raises(ValueError):
            kl_diag_vs_isotropic([0.0], [1.0], [0.0], -1.0)

    @pytest.mark.parametrize("mu_q, var_q, mu_p", [([0.0, 1.0], [1.0], [0.0, 0.0]),
                                                   ([0.0], [1.0], [0.0, 0.0])])
    def test_rejects_unequal_lengths(self, mu_q, var_q, mu_p):
        with pytest.raises(ValueError, match="array lengths differ"):
            kl_diag_vs_isotropic(mu_q, var_q, mu_p, 1.0)

    def test_decreasing_toward_prior(self):
        # params at anchors, var_q = c * prior variance: KL strictly decreasing in c on (0, 1]
        mu = np.zeros(5)
        var_p = 0.8
        cs = np.linspace(0.05, 1.0, 20)
        kls = [kl_diag_vs_isotropic(mu, c * var_p * np.ones(5), mu, var_p) for c in cs]
        assert all(a > b for a, b in zip(kls, kls[1:]))
        assert kls[-1] == 0.0

    def test_objective_group_kl_matches_public_kl_bitwise(self):
        # the objective's per-group pass and the checked public entry are one formula
        rng = np.random.default_rng(3)
        for d in [0, 1, 39, 300, *rng.integers(2, 500, size=100)]:
            w, anchor = rng.standard_normal(d), rng.standard_normal(d)
            var = np.exp(2.0 * rng.standard_normal(d))
            prior_log_var = float(rng.standard_normal())
            kl = bound._group_kl(w, var, anchor, math.exp(prior_log_var))[0]
            public = kl_diag_vs_isotropic(w, var, anchor, math.exp(prior_log_var))
            assert kl.hex() == public.hex()


class TestLPac:
    def test_unit_plugin(self):
        cfg = BoundConfig(m=1, delta=math.exp(-1.0), gamma=FixedGamma(1.0),
                          k=FixedK(1.0))
        assert l_pac(0.0, cfg, gamma=1.0, k=1.0) == pytest.approx(2.0, abs=1e-15)

    def test_hand_arithmetic(self):
        delta = math.exp(-1.0)
        cfg = BoundConfig(m=100, delta=delta, gamma=FixedGamma(0.5), k=FixedK(1.0))
        kl = 3.0 - math.log(1.0 / delta)
        assert l_pac(kl, cfg, gamma=0.5, k=1.0) == pytest.approx(0.56, abs=1e-15)

    def test_monotone_in_kl(self):
        cfg = BoundConfig(m=50, delta=0.05)
        values = [l_pac(kl, cfg, gamma=2.0, k=0.7) for kl in (0.0, 1.0, 5.0, 50.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_gamma_must_be_positive(self):
        cfg = BoundConfig(m=10, delta=0.1)
        with pytest.raises(ValueError):
            l_pac(1.0, cfg, gamma=0.0, k=1.0)

    def test_kl_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="kl_total must be nonnegative"):
            l_pac(-1e-12, BoundConfig(m=10, delta=0.1), gamma=1.0, k=1.0)


class TestOptimalGamma:
    def test_interior_minimizer_beats_grid(self):
        a, m, k = 3.0, 100, 1.0
        g = optimal_gamma(a, m, k, 0.01, 10.0)
        assert g == pytest.approx(math.sqrt(0.03), abs=1e-12)
        grid = np.linspace(0.001, 10.0, 10_000)
        best = np.min(a / (grid * m) + grid * k * k)
        assert a / (g * m) + g * k * k <= best + 1e-12

    def test_clipped_to_lower_edge(self):
        assert optimal_gamma(3.0, 100, 1.0, 0.5, 10.0) == 0.5

    def test_zero_numerator_goes_to_low(self):
        assert optimal_gamma(0.0, 100, 1.0, 0.25, 10.0) == 0.25

    def test_underflowing_k_squared_goes_to_high(self):
        # m k^2 is 0 in float64, so the unclipped minimizer is +inf
        assert optimal_gamma(3.0, 100, 1e-200, 0.01, 10.0) == 10.0

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            optimal_gamma(1.0, 10, 1.0, 2.0, 1.0)

    def test_rejects_zero_k(self):
        with pytest.raises(ValueError, match="k > 0"):
            optimal_gamma(1.0, 10, 0.0, 0.5, 2.0)

    def test_grid_property_random_triples(self):
        rng = np.random.default_rng(1)
        grid = np.linspace(0.01, 10.0, 1000)
        for _ in range(100):
            a = float(rng.uniform(0.0, 20.0))
            m = int(rng.integers(1, 1000))
            k = float(rng.uniform(0.05, 5.0))
            g = optimal_gamma(a, m, k, 0.01, 10.0)
            mine = a / (g * m) + g * k * k
            best = np.min(a / (grid * m) + grid * k * k)
            assert mine <= best + 1e-12


class TestKTracker:
    def test_constant_history_floored(self):
        tracker = KTracker(RunningK(0.99))
        for _ in range(500):
            tracker.update(3.0)
        assert tracker.value == bound.K_FLOOR

    def test_alternating_history_near_unit_std(self):
        tracker = KTracker(RunningK(0.99))
        for v in [0.0, 2.0] * 2000:
            tracker.update(v)
        assert tracker.value == pytest.approx(1.0, abs=0.05)

    def test_no_history_floored(self):
        assert KTracker(RunningK(0.99)).value == bound.K_FLOOR

    @pytest.mark.parametrize("value", [bound.K_FLOOR / 4, 0.3, 5.0])
    def test_fixed_k_kept_exactly_and_ignores_update(self, value):
        tracker = KTracker(FixedK(value))
        assert tracker.value == value
        for v in [0.0, 2.0] * 50:
            tracker.update(v)
        assert tracker.value == value


def perturb(params, log_std, rng):
    """The training draw: one standard-normal tau, then params + exp(log_std) * tau."""
    tau = rng.standard_normal(np.shape(params))
    return kernels.apply_noise(params, np.exp(log_std), tau, np.empty_like(tau)), tau


class TestPerturb:
    def test_vanishing_noise(self):
        params = np.array([1.0, -2.0, 3.0])
        perturbed, _ = perturb(params, np.full(3, -40.0), np.random.default_rng(0))
        assert np.max(np.abs(perturbed - params)) < 1e-15

    def test_fixed_seed_reproducible(self):
        params = np.zeros(4)
        p = np.zeros(4)
        a, ta = perturb(params, p, np.random.default_rng(5))
        b, tb = perturb(params, p, np.random.default_rng(5))
        assert np.array_equal(a, b) and np.array_equal(ta, tb)

    def test_monte_carlo_mean(self):
        # E[perturbed] = params, within 3 sigma of the MC standard error
        params = np.array([0.5, -1.5])
        p = np.array([-1.0, 0.5])
        n = 100_000
        draws = np.broadcast_to(params, (n, 2))
        perturbed, _ = perturb(draws, p, np.random.default_rng(7))
        tol = 3.0 * np.exp(p) / math.sqrt(n)
        assert np.all(np.abs(perturbed.mean(axis=0) - params) <= tol)


def tiny_setup(seed=0, layer_sizes=(2, 3, 2), freeze=False):
    rng = np.random.default_rng(seed)
    model = models.init_weights(list(layer_sizes), rng, freeze_first_layer=freeze)
    packer = model.layout
    noise = init_noise_state(model)
    bx = rng.standard_normal((8, layer_sizes[0]))
    by = rng.integers(0, layer_sizes[-1], size=8)
    return model, packer, noise, bx, by


def workspace(model):
    """A workspace for gradients only; no update is taken."""
    return StepWorkspace(model, 0.0, 0.0)


def draw(model, seed=0):
    """One training noise draw over the model's trainable coordinates."""
    return np.random.default_rng(seed).standard_normal(model.layout.trainable_size)


class TestObjective:
    def test_noise_free_limit(self):
        model, packer, noise, bx, by = tiny_setup()
        noise.log_std_backbone[:] = -40.0
        noise.log_std_head[:] = -40.0
        noise.params[-2:] = 0.0  # both prior log-variances
        cfg = BoundConfig(m=8, gamma=FixedGamma(5.0), k=FixedK(1.0))
        terms, _ = pac_objective(workspace(model), noise, bx, by, cfg, draw(model), 1.0,
                                 noise.variances())
        clean = ad.softmax_cross_entropy(model.forward(bx), by).item()
        assert abs(terms.l_train - clean) < 1e-12
        assert terms.j_total == terms.l_train + terms.l_pac

    def test_closed_form_matches_tape_oracle(self):
        # 24 cases at random shapes: the MLP loss and gradient equal the tape's
        # bitwise, J's terms and gradients agree to 1e-12 relative
        for case, (mismatches, worst) in enumerate(ad.training_path_errors()):
            assert mismatches == 0 and worst <= 1e-12, (case, mismatches, worst)

    def test_gradcheck_full_objective(self):
        model, packer, noise, bx, by = tiny_setup(seed=4, layer_sizes=(2, 2, 2))
        cfg = BoundConfig(m=8, gamma=FixedGamma(5.0), k=FixedK(1.0))
        err = ad.objective_gradcheck(model, noise, bx, by, cfg, seed=0)
        assert err < 1e-3

    def test_gradcheck_with_auto_gamma_and_frozen_draw(self):
        model, packer, noise, bx, by = tiny_setup(seed=5, layer_sizes=(2, 2, 2))
        cfg = BoundConfig(m=8, gamma=AutoGamma(0.01, 10.0), k=FixedK(0.5))
        err = ad.objective_gradcheck(model, noise, bx, by, cfg, seed=1)
        assert err < 1e-3

    def test_anchor_pull_term(self):
        # the objective's weight gradient minus the loss gradient is exactly
        # (w - anchor) / (prior variance * gamma * m)
        model, packer, noise, bx, by = tiny_setup(seed=6)
        model.weights[0][...] += 0.3  # move away from the anchors
        gamma, m = 2.0, 8
        cfg = BoundConfig(m=m, gamma=FixedGamma(gamma), k=FixedK(1.0))
        work = workspace(model)
        pac_objective(work, noise, bx, by, cfg, np.zeros(packer.trainable_size), 1.0,
                      noise.variances())
        dj_dw = work.grad.copy()
        loss_and_grads(work, work.params, bx, by)
        ce_grad = work.grad
        for group in (ParamGroup.BACKBONE, ParamGroup.HEAD):
            part = packer.group(group)
            pull = (packer.pack(model, group) - noise.anchor(group)) / (
                math.exp(noise.prior_log_var(group)) * gamma * m)
            assert np.allclose(dj_dw[part] - ce_grad[part], pull, atol=1e-12)

    def test_l_pac_weight_zero_removes_bound_gradient(self):
        model, packer, noise, bx, by = tiny_setup(seed=7)
        cfg = BoundConfig(m=8, gamma=FixedGamma(5.0), k=FixedK(1.0))
        tau = np.random.default_rng(2).standard_normal(packer.trainable_size)
        terms, noise_grad = pac_objective(workspace(model), noise, bx, by, cfg, tau, 1.0,
                                          noise.variances(), l_pac_weight=0.0)
        assert terms.l_pac == 0.0
        assert terms.j_total == terms.l_train
        # prior parameters only appear through the bound term
        assert noise_grad[-2] == 0.0  # backbone prior log-variance
        assert noise_grad[-1] == 0.0  # head prior log-variance

    def test_empty_batch_rejected(self):
        model, packer, noise, _, _ = tiny_setup()
        cfg = BoundConfig(m=8)
        with pytest.raises(ValueError, match="nonempty"):
            pac_objective(workspace(model), noise, np.zeros((0, 2)), np.zeros(0, dtype=int),
                          cfg, draw(model), bound.K_FLOOR, noise.variances())

    def test_frozen_first_layer_are_constants(self):
        model, packer, noise, bx, by = tiny_setup(seed=8, freeze=True)
        assert packer.sizes[ParamGroup.BACKBONE] == 0
        cfg = BoundConfig(m=8, gamma=FixedGamma(5.0), k=FixedK(1.0))
        work = workspace(model)
        terms, _ = pac_objective(work, noise, bx, by, cfg, draw(model), 1.0,
                                 noise.variances())
        assert terms.kl_backbone == 0.0
        assert work.grad.size == packer.sizes[ParamGroup.HEAD]


class TestNoiseState:
    def test_init_log_magnitude_with_floor_and_head_boost(self):
        model, packer, noise, _, _ = tiny_setup(seed=9)
        w_flat = packer.pack(model, ParamGroup.BACKBONE)
        expected = np.log(np.maximum(np.abs(w_flat), 1e-4))
        assert np.allclose(noise.log_std_backbone, expected, atol=1e-15)
        h_flat = packer.pack(model, ParamGroup.HEAD)
        expected_h = np.log(np.maximum(np.abs(h_flat), 1e-4)) + math.log(10.0)
        assert np.allclose(noise.log_std_head, expected_h, atol=1e-15)
        # initial head variance exceeds backbone variance on average
        assert noise.mean_variance(ParamGroup.HEAD) > noise.mean_variance(
            ParamGroup.BACKBONE)

    def test_prior_init_matches_mean_variance(self):
        model, packer, noise, _, _ = tiny_setup(seed=10)
        assert math.exp(noise.prior_log_var(ParamGroup.BACKBONE)) == pytest.approx(
            noise.mean_variance(ParamGroup.BACKBONE), rel=1e-12)

    def test_serialization_roundtrip(self, tmp_path):
        model, packer, noise, _, _ = tiny_setup(seed=11)
        path = tmp_path / "noise.json"
        bound.save_noise_state(noise, path, "ckpt-123")
        loaded = bound.load_noise_state(path)
        assert np.array_equal(loaded.log_std_backbone, noise.log_std_backbone)
        assert np.array_equal(loaded.log_std_head, noise.log_std_head)
        assert loaded.params.tobytes() == noise.params.tobytes()
        assert json.loads(path.read_text(encoding="utf-8"))["anchor_checkpoint"] == "ckpt-123"
        with pytest.raises(ValueError, match="anchor"):
            loaded.anchor(ParamGroup.BACKBONE)

    @pytest.mark.parametrize("freeze", [False, True])
    def test_init_follows_the_model_layout(self, freeze):
        model, _, noise, _, _ = tiny_setup(seed=12, layer_sizes=(2, 3, 4, 2),
                                           freeze=freeze)
        sizes = model.layout.sizes
        assert noise.n_backbone == sizes[ParamGroup.BACKBONE]
        assert noise.log_std_head.size == sizes[ParamGroup.HEAD]
        assert np.array_equal(noise.anchor(), model.theta[model.layout.start:])

    @pytest.mark.parametrize("text, match", [
        ("{", "Expecting"),
        ('{"version": 2}', "version"),
        ("[1]", "version"),
        ('{"version": 1, "p_backbone": []}', "malformed"),
        ('{"version": 1, "p_backbone": [], "p_head": [0.1], "log_lambda": null, '
         '"log_beta": 0}', "malformed"),
    ])
    def test_unusable_file_is_a_value_error(self, tmp_path, text, match):
        path = tmp_path / "noise.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            bound.load_noise_state(path)

    # finite numbers too, when exp(2 log-std) or exp(log-var) is inf or 0
    @pytest.mark.parametrize("field, value", [("p_backbone", math.nan),
                                              ("p_head", math.inf),
                                              ("log_lambda", -math.inf),
                                              ("log_beta", math.nan),
                                              ("p_backbone", 1e308), ("p_head", -1e308),
                                              ("p_backbone", 355.0), ("p_head", -373.0),
                                              ("log_lambda", 710.0), ("log_beta", -746.0)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unusable_variance_is_a_value_error(self, tmp_path, field, value):
        path = tmp_path / "noise.json"
        bound.save_noise_state(tiny_setup(seed=11)[2], path, None)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc[field] = [*doc[field][:-1], value] if isinstance(doc[field], list) else value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="^" + re.escape(
                "a log-std or prior log-variance is not finite, or its variance is not "
                "finite and > 0") + "$"):
            bound.load_noise_state(path)

    @pytest.mark.parametrize("freeze", [False, True])
    def test_rates_sizes_and_gradient_follow_the_layout(self, freeze):
        _, packer, noise, _, _ = tiny_setup(seed=12, layer_sizes=(2, 3, 4, 2), freeze=freeze)
        assert [noise.size(g) for g in ParamGroup] == [packer.sizes[g] for g in ParamGroup]
        expected = np.append(packer.per_coordinate(0.1, 0.7), [0.1, 0.7])
        assert noise.per_coordinate(0.1, 0.7).tobytes() == expected.tobytes()
        # each state owns its gradient buffer, laid out as its params
        assert noise.grad.shape == noise.params.shape
        assert not np.shares_memory(noise.copy().grad, noise.grad)

    @pytest.mark.parametrize("freeze", [False, True])
    def test_kl_inputs_follow_the_layout(self, freeze):
        model, packer, noise, _, _ = tiny_setup(seed=13, layer_sizes=(2, 3, 4, 2),
                                                freeze=freeze)
        weights = model.theta[packer.start:] + 1.0
        var = noise.variances()
        inputs = list(noise.kl_inputs(weights, var))
        assert len(inputs) == len(ParamGroup)
        for g, (w, v, anchor, var_p) in zip(ParamGroup, inputs):
            assert w.tobytes() == weights[packer.group(g)].tobytes()
            assert v.tobytes() == var[packer.group(g)].tobytes()
            assert anchor.tobytes() == noise.anchors[packer.group(g)].tobytes()
            assert var_p == math.exp(noise.prior_log_var(g))
        # the objective fills the gradient through views laid out as params
        noise.grad[:] = np.arange(noise.grad.size)
        assert noise.grad_prior.tolist() == [noise.grad.size - 2, noise.grad.size - 1]
        assert noise.grad_log_std.tolist() == list(range(noise.grad.size - 2))
        loaded = bound.NoiseState(noise.params.copy(), noise.n_backbone)
        with pytest.raises(ValueError, match="no anchors"):
            list(loaded.kl_inputs(weights, var))

    # the one variance rule at its edges: just past each, a log-std's variance
    # exp(2 p) or a prior's exp(log-var) underflows to 0 or overflows to inf
    @pytest.mark.parametrize("field, value, ok", [
        *[(field, value, ok) for field in ("p_backbone", "p_head")
          for value, ok in ((-372.5, True), (-372.6, False), (354.8, True), (354.9, False),
                            (math.nan, False))],
        *[(field, value, ok) for field in ("log_lambda", "log_beta")
          for value, ok in ((-745.1, True), (-745.2, False), (709.7, True), (709.8, False),
                            (math.nan, False))]])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_variance_rule_edges(self, tmp_path, field, value, ok):
        noise = tiny_setup(seed=11)[2]
        path = tmp_path / "noise.json"
        bound.save_noise_state(noise, path, None)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc[field] = [*doc[field][:-1], value] if isinstance(doc[field], list) else value
        path.write_text(json.dumps(doc))
        # the coordinate of params that the field's last entry is
        index = {"p_backbone": noise.n_backbone - 1, "p_head": -3, "log_lambda": -2,
                 "log_beta": -1}[field]
        noise.params[index] = value
        checked = noise.checked_variances()
        if ok:
            assert checked.tobytes() == noise.variances().tobytes()
            assert bound.load_noise_state(path).params.tobytes() == noise.params.tobytes()
        else:
            assert checked is None
            with pytest.raises(ValueError, match="^a log-std or prior log-variance is not"):
                bound.load_noise_state(path)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BoundConfig(m=0)
        with pytest.raises(ValueError):
            BoundConfig(m=10, delta=1.5)
        with pytest.raises(ValueError):
            BoundConfig(m=10, gamma=FixedGamma(-1.0))
        with pytest.raises(ValueError):
            BoundConfig(m=10, gamma=AutoGamma(2.0, 1.0))
        with pytest.raises(ValueError):
            BoundConfig(m=10, k=FixedK(0.0))
        with pytest.raises(ValueError, match="ema_decay"):
            BoundConfig(m=1, k=RunningK(1.0))


@pytest.fixture(scope="module")
def trained_blob_model():
    spec = datasets.DatasetSpec("blobs", n=400, seed=2, classes=2, dim=2,
                                separation=2.5, class_std=0.9)
    ds = datasets.generate(spec)
    model = pipeline.pretrain_model(ds, [2, 8, 2], epochs=40, batch_size=32,
                                    lr_backbone=3e-3, lr_head=1e-2, seed=3)
    return model, ds


class TestNoiseMonotonicity:
    def test_loss_increases_with_noise_scale(self, trained_blob_model):
        model, ds = trained_blob_model
        packer = model.layout
        noise = init_noise_state(model)
        bx, by = ds.x[:64], ds.y[:64]
        std = np.exp(noise.log_std)
        rng = np.random.default_rng(12)
        work = workspace(model)

        means = []
        for scale in (0.0, 0.5, 1.0, 2.0, 4.0):
            total = 0.0
            for _ in range(200):
                perturbed = model.theta.copy()
                perturbed[packer.start:] += scale * std * rng.standard_normal(std.size)
                loss = loss_and_grads(work, packer.views(perturbed), bx, by)
                total += loss
            means.append(total / 200.0)
        violations = sum(1 for a, b in zip(means, means[1:]) if b < a)
        assert violations <= 1, means
        # and the largest scale must clearly dominate the noise-free loss
        assert means[-1] > means[0]
