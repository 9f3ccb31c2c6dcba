import numpy as np
import pytest

from pactune import models
from pactune.bound import init_noise_state
from pactune.models import ParamGroup, StepWorkspace
from pactune.optim import AdamState, adam_step
from pactune.pgd import loss_and_grads, pgd_step, random_layer_noise_step

GROUPS = (ParamGroup.BACKBONE, ParamGroup.HEAD)


def setup(seed=0, layer_sizes=(2, 4, 2), n=8, freeze=False):
    rng = np.random.default_rng(seed)
    model = models.init_weights(list(layer_sizes), rng, freeze_first_layer=freeze)
    packer = model.layout
    bx = rng.standard_normal((n, layer_sizes[0]))
    by = rng.integers(0, layer_sizes[-1], size=n)
    return model, packer, bx, by


def fresh_adam(packer):
    return AdamState(packer.trainable_size)


def learned(model, std_backbone, std_head):
    """The std vector exp(log_std) of learned noise holding one std per group;
    a std of 0 is log-std -inf."""
    noise = init_noise_state(model)
    with np.errstate(divide="ignore"):
        noise.log_std_backbone[:] = np.log(std_backbone)
        noise.log_std_head[:] = np.log(std_head)
    return np.exp(noise.log_std)


def per_group_adam(packer, theta, grad, lrs, weight_decay):
    """Reference update: one Adam state and one scalar rate per group, in place."""
    for g, lr in zip(GROUPS, lrs):
        adam_step(AdamState(packer.sizes[g]), theta[g], grad[packer.group(g)], lr,
                  apply_weight_decay=weight_decay)


def gradient_at(model, theta, bx, by):
    work = StepWorkspace(model, 0.0, 0.0)
    loss_and_grads(model, work, model.layout.views(theta), bx, by)
    return work.grad


def manual_plain_step(model, packer, bx, by, lr_b, lr_h, weight_decay):
    """Reference: gradient at the clean weights, one Adam update per group."""
    model = model.copy()
    grad = gradient_at(model, model.theta, bx, by)
    theta = {g: packer.pack(model, g) for g in GROUPS}
    per_group_adam(packer, theta, grad, (lr_b, lr_h), weight_decay)
    for g in GROUPS:
        packer.unpack_into(model, g, theta[g])
    return model


class TestPgdStep:
    def test_zero_noise_matches_plain_step_bitwise(self):
        model, packer, bx, by = setup()
        expected = manual_plain_step(model, packer, bx, by, 1e-3, 1e-2, True)
        stepped = model.copy()
        std = learned(model, 0.0, 0.0)
        assert not std.any()  # exp(-inf) is exactly 0
        # noise is drawn (stream consumed) but scaled by exactly zero
        pgd_step(stepped, bx, by, std, fresh_adam(packer),
                 StepWorkspace(stepped, 1e-3, 1e-2), np.random.default_rng(99))
        for a, b in zip(stepped.weights + stepped.biases,
                        expected.weights + expected.biases):
            assert np.array_equal(a, b)

    def test_learned_minus_forty_matches_plain_step(self):
        model, packer, bx, by = setup(seed=1)
        noise = init_noise_state(model)
        noise.log_std_backbone[:] = -40.0
        noise.log_std_head[:] = -40.0
        expected = manual_plain_step(model, packer, bx, by, 1e-3, 1e-2, True)
        stepped = model.copy()
        pgd_step(stepped, bx, by, np.exp(noise.log_std), fresh_adam(packer),
                 StepWorkspace(stepped, 1e-3, 1e-2), np.random.default_rng(0))
        for a, b in zip(stepped.weights + stepped.biases,
                        expected.weights + expected.biases):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_gradient_taken_at_perturbed_point(self):
        # replicate the noise draw, compute the gradient at theta + std*tau by
        # hand, and confirm the step used exactly that gradient
        model, packer, bx, by = setup(seed=2)
        std = learned(model, 0.2, 0.3)

        tau = np.random.default_rng(123).standard_normal(packer.trainable_size)
        perturbed = model.theta.copy()
        perturbed[packer.start:] += std * tau
        grad = gradient_at(model, perturbed, bx, by)
        expect = {g: packer.pack(model, g) for g in GROUPS}
        per_group_adam(packer, expect, grad, (1e-3, 1e-2), False)

        stepped = model.copy()
        pgd_step(stepped, bx, by, std, fresh_adam(packer),
                 StepWorkspace(stepped, 1e-3, 1e-2), np.random.default_rng(123),
                 weight_decay=False)
        for g in GROUPS:
            assert np.array_equal(packer.pack(stepped, g), expect[g])

    def test_noise_removed_from_parameters(self):
        # with a vanishing learning rate the update underflows, so parameters
        # stay bit-identical no matter how large the injected noise was
        model, packer, bx, by = setup(seed=3)
        before = [w.copy() for w in model.weights]
        pgd_step(model, bx, by, learned(model, 1e3, 1e3), fresh_adam(packer),
                 StepWorkspace(model, 1e-300, 1e-300), np.random.default_rng(4),
                 weight_decay=False)
        for a, b in zip(model.weights, before):
            assert np.array_equal(a, b)

    def test_group_learning_rate_separation(self):
        # backbone deltas scale with lr_backbone; head deltas are unaffected
        model, packer, bx, by = setup(seed=4)

        def deltas(lr_b):
            stepped = model.copy()
            pgd_step(stepped, bx, by, learned(model, 0.0, 0.0),
                     fresh_adam(packer), StepWorkspace(stepped, lr_b, 1e-2),
                     np.random.default_rng(0), weight_decay=False)
            return {g: packer.pack(stepped, g) - packer.pack(model, g)
                    for g in GROUPS}

        small, large = deltas(1e-3), deltas(3e-3)
        assert np.allclose(large[ParamGroup.BACKBONE],
                           3.0 * small[ParamGroup.BACKBONE], rtol=1e-12)
        assert np.array_equal(small[ParamGroup.HEAD], large[ParamGroup.HEAD])

    def test_zero_lr_freezes_group_exactly(self):
        # the update rule itself: zero learning rate moves nothing, whatever
        # the gradient was (the config layer enforces positive rates, so this
        # is checked on the optimizer directly)
        model, packer, bx, by = setup(seed=4)
        grad = gradient_at(model, model.theta, bx, by)
        theta = model.theta[packer.start:].copy()
        before = theta.copy()
        adam_step(fresh_adam(packer), theta, grad, packer.per_coordinate(0.0, 1e-2),
                  apply_weight_decay=False)
        backbone = packer.group(ParamGroup.BACKBONE)
        assert np.array_equal(theta[backbone], before[backbone])
        assert not np.array_equal(theta, before)

    def test_fixed_seed_reproducible_trajectory(self):
        def run():
            model, packer, bx, by = setup(seed=5)
            std = learned(model, 0.1, 0.2)
            adam = fresh_adam(packer)
            work = StepWorkspace(model, 1e-3, 1e-2)
            rng = np.random.default_rng(11)
            for _ in range(5):
                pgd_step(model, bx, by, std, adam, work, rng)
            return np.concatenate([packer.pack(model, g) for g in GROUPS])

        assert np.array_equal(run(), run())

    def test_empty_batch_rejected(self):
        model, packer, _, _ = setup()
        std = learned(model, 0.0, 0.0)
        with pytest.raises(ValueError, match="nonempty"):
            pgd_step(model, np.zeros((0, 2)), np.zeros(0, dtype=int), std,
                     fresh_adam(packer), StepWorkspace(model, 1e-3, 1e-2),
                     np.random.default_rng(0))


class _RecordingRng:
    """Duck-typed generator that records layer choices."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.choices = []

    def integers(self, *args, **kw):
        v = self._rng.integers(*args, **kw)
        self.choices.append(int(v))
        return v

    def standard_normal(self, *args, **kw):
        return self._rng.standard_normal(*args, **kw)


class TestRandomLayerNoise:
    def test_sigma_zero_is_plain_step(self):
        model, packer, bx, by = setup(seed=6)
        expected = manual_plain_step(model, packer, bx, by, 1e-3, 1e-2, True)
        stepped = model.copy()
        random_layer_noise_step(stepped, bx, by, 0.0, fresh_adam(packer),
                                StepWorkspace(stepped, 1e-3, 1e-2),
                                np.random.default_rng(8))
        for a, b in zip(stepped.weights + stepped.biases,
                        expected.weights + expected.biases):
            assert np.array_equal(a, b)

    def test_single_layer_model_always_chosen(self):
        model, packer, bx, by = setup(seed=7, layer_sizes=(2, 2))
        rng = _RecordingRng(3)
        work = StepWorkspace(model, 1e-3, 1e-2)
        for _ in range(20):
            random_layer_noise_step(model, bx, by, 0.05, fresh_adam(packer), work, rng)
        assert rng.choices == [0] * 20

    def test_layer_choice_frequencies(self):
        # chi-square-style sanity check over 10^4 steps on a 4-layer model
        model, packer, bx, by = setup(seed=8, layer_sizes=(1, 1, 1, 1, 2), n=2)
        assert model.n_layers == 4
        rng = _RecordingRng(42)
        adam = fresh_adam(packer)
        work = StepWorkspace(model, 1e-4, 1e-4)
        for _ in range(10_000):
            random_layer_noise_step(model, bx, by, 1e-3, adam, work, rng)
        freq = np.bincount(rng.choices, minlength=4) / 10_000
        assert np.all(np.abs(freq - 0.25) <= 0.02), freq

    def test_frozen_layer_noise_never_reaches_the_model(self):
        model, packer, bx, by = setup(seed=9, layer_sizes=(2, 3, 2), freeze=True)
        frozen_w, frozen_b = model.weights[0].copy(), model.biases[0].copy()
        rng = _RecordingRng(5)
        adam = fresh_adam(packer)
        work = StepWorkspace(model, 1e-3, 1e-2)
        for _ in range(20):
            random_layer_noise_step(model, bx, by, 0.5, adam, work, rng)
        assert 0 in rng.choices
        assert np.array_equal(model.weights[0], frozen_w)
        assert np.array_equal(model.biases[0], frozen_b)

    def test_negative_sigma_rejected(self):
        model, packer, bx, by = setup()
        with pytest.raises(ValueError):
            random_layer_noise_step(model, bx, by, -0.1, fresh_adam(packer),
                                    StepWorkspace(model, 1e-3, 1e-2),
                                    np.random.default_rng(0))
