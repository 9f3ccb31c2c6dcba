import json
import math
import pickle
import re

import numpy as np
import pytest

from pactune import autodiff as ad
from pactune import models
from pactune.models import GroupPacker, ParamGroup


def fresh(layer_sizes=(2, 4, 2), seed=1, **kw):
    return models.init_weights(list(layer_sizes), np.random.default_rng(seed), **kw)


class TestInit:
    def test_fan_in_bound(self):
        m = fresh((4, 8, 2), seed=0)
        assert np.all(np.abs(m.weights[0]) <= 0.5)
        assert np.all(np.abs(m.weights[1]) <= 1.0 / np.sqrt(8))

    def test_same_seed_identical(self):
        a, b = fresh(seed=9), fresh(seed=9)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_biases_exactly_zero(self):
        m = fresh(seed=5)
        for b in m.biases:
            assert np.all(b == 0.0)


class TestForward:
    def test_zero_weights_zero_logits(self):
        m = fresh()
        m.theta[:] = 0.0
        out = m.forward(np.random.default_rng(0).standard_normal((7, 2)))
        assert np.all(out == 0.0)

    def test_golden_vector_seed1(self):
        # pinned from the reference forward pass at seed 1
        m = fresh((2, 4, 2), seed=1)
        out = m.forward(np.array([[0.5, -1.0], [2.0, 0.25]]))
        expected = [[0.13757892323706084, -0.30764812059383956],
                    [0.16816146447044536, -0.19659484270708855]]
        assert np.allclose(out, expected, rtol=0, atol=1e-15)

    def test_empty_batch(self):
        m = fresh()
        out = m.forward(np.zeros((0, 2)))
        assert out.shape == (0, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="input size"):
            fresh().forward(np.zeros((3, 5)))

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError, match="activation"):
            fresh(activation="sigmoid").forward(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="unknown activation 'sigmoid'"):
            models.MLPClassifier([2, 2], activation="sigmoid")  # at construction

    def test_nonfinite_loss_raises(self):
        # finite logits whose spread overflows: the picked logit's log-softmax is -inf
        with np.errstate(over="ignore"), \
                pytest.raises(ad.NumericsError, match="^the loss is not finite$"):
            models._softmax_cross_entropy(np.array([[1e308, -1e308]]), np.array([1]))

    def test_nonfinite_layer_output_raises(self):
        # the divergence guard of every training step
        m = fresh()
        m.weights[1][0, 0] = np.inf
        with pytest.raises(ad.NumericsError, match="layer 1"):
            m.forward(np.ones((3, 2)))
        work = models.StepWorkspace(m, 0.0, 0.0)
        with pytest.raises(ad.NumericsError, match="layer 1"):
            models.loss_and_grads(work, work.params, np.ones((3, 2)), np.zeros(3))


class TestReplaceHead:
    def test_backbone_bit_identical(self):
        m = fresh((2, 4, 3), seed=2)
        m2 = models.replace_head(m, np.random.default_rng(3), m.n_classes, False)
        for i in range(m.n_layers - 1):
            assert np.array_equal(m.weights[i], m2.weights[i])
            assert np.array_equal(m.biases[i], m2.biases[i])

    def test_different_seeds_differ(self):
        m = fresh((2, 4, 3), seed=2)
        a = models.replace_head(m, np.random.default_rng(1), m.n_classes, False)
        b = models.replace_head(m, np.random.default_rng(2), m.n_classes, False)
        assert not np.array_equal(a.weights[-1], b.weights[-1])

    def test_class_count_change(self):
        m = fresh((2, 6, 3), seed=2)
        m2 = models.replace_head(m, np.random.default_rng(0), 2, False)
        assert m2.weights[-1].shape == (6, 2)
        assert m2.layer_sizes == [2, 6, 2]

    def test_backbone_activations_identical(self):
        m = fresh((2, 5, 3), seed=4)
        m2 = models.replace_head(m, np.random.default_rng(7), 2, False)
        x = np.zeros((3, 2))
        h1 = ad.tanh(ad.add_bias(ad.matmul(ad.as_tensor(x), ad.as_tensor(m.weights[0])),
                                 ad.as_tensor(m.biases[0]))).data
        h2 = ad.tanh(ad.add_bias(ad.matmul(ad.as_tensor(x), ad.as_tensor(m2.weights[0])),
                                 ad.as_tensor(m2.biases[0]))).data
        assert np.array_equal(h1, h2)


class TestGroups:
    def test_packer_roundtrip(self):
        m = fresh((3, 4, 2), seed=6)
        packer = m.layout
        flat = packer.pack(m, ParamGroup.BACKBONE)
        assert flat.size == 3 * 4 + 4
        m2 = m.copy()
        packer.unpack_into(m2, ParamGroup.BACKBONE, flat * 2.0)
        assert np.array_equal(m2.weights[0], m.weights[0] * 2.0)
        assert np.array_equal(m2.weights[1], m.weights[1])

    def test_layout_needs_input_and_output_sizes(self):
        with pytest.raises(ValueError, match="at least input and output sizes"):
            GroupPacker.for_sizes([3])

    def test_unpack_of_wrong_shape_raises(self):
        m = fresh((3, 4, 2), seed=6)
        with pytest.raises(ValueError, match=re.escape("expected shape (10,), got (9,)")):
            m.layout.unpack_into(m, ParamGroup.HEAD, np.zeros(9))

    def test_frozen_layer_excluded(self):
        m = fresh((3, 4, 2), seed=6, freeze_first_layer=True)
        packer = m.layout
        assert packer.sizes[ParamGroup.BACKBONE] == 0
        assert packer.sizes[ParamGroup.HEAD] == 4 * 2 + 2


class TestFixedLayout:
    """The trainable layout is built with the model and cannot change."""

    @pytest.mark.parametrize("freeze", [False, True])
    def test_every_way_to_make_a_model_fixes_its_layout(self, freeze, tmp_path):
        sizes = [3, 4, 5, 2]
        built = {
            "constructor": models.MLPClassifier(sizes, freeze_first_layer=freeze),
            "init_weights": fresh(sizes, seed=1, freeze_first_layer=freeze),
        }
        built["copy"] = built["init_weights"].copy()
        opposite = fresh(sizes, seed=1, freeze_first_layer=not freeze)
        built["replace_head"] = models.replace_head(opposite, np.random.default_rng(2),
                                                    2, freeze)
        for name, model in built.items():
            assert model.layout == GroupPacker.for_sizes(sizes, freeze), name
            assert model.freeze_first_layer is freeze, name
        path = tmp_path / "ckpt.json"
        models.save_checkpoint(built["init_weights"], path, {})
        assert models.load_checkpoint(path).layout == GroupPacker.for_sizes(sizes, False)

    def test_freeze_cannot_be_assigned(self):
        m = fresh(freeze_first_layer=False)
        with pytest.raises(AttributeError):
            m.freeze_first_layer = True
        assert m.layout.n_frozen == 0


class TestFlatLayout:
    def test_layer_views_write_through_to_theta_and_pack(self):
        m = fresh((3, 4, 2), seed=6)
        assert all(np.shares_memory(a, m.theta) for a in m.weights + m.biases)
        m.weights[1][2, 0] = 7.5
        m.biases[0][1] = -2.5
        packer = m.layout
        # layer 0: 12 weights, 4 biases; layer 1 starts at 16
        assert m.theta[16 + 2 * 2 + 0] == 7.5
        assert m.theta[12 + 1] == -2.5
        assert packer.pack(m, ParamGroup.HEAD)[2 * 2 + 0] == 7.5
        assert packer.pack(m, ParamGroup.BACKBONE)[12 + 1] == -2.5

    def test_views_of_a_vector_of_another_size_raise(self):
        # a (2, 4, 2) model: θ has 22 entries and, unfrozen, 22 trainable ones
        with pytest.raises(ValueError, match=re.escape("size 5 fits neither θ (22)")):
            fresh().layout.views(np.zeros(5))

    def test_views_cannot_be_rebound(self):
        m = fresh()
        with pytest.raises(TypeError):
            m.weights[0] = np.zeros((2, 4))
        with pytest.raises(AttributeError):
            m.biases = ()

    def test_trainable_suffix_is_backbone_then_head(self):
        m = fresh((3, 4, 5, 2), seed=1, freeze_first_layer=True)
        packer = m.layout
        assert packer.start == 3 * 4 + 4
        trainable = m.theta[packer.start:]
        assert np.array_equal(trainable[packer.group(ParamGroup.BACKBONE)],
                              np.concatenate([m.weights[1].ravel(), m.biases[1]]))
        assert np.array_equal(trainable[packer.group(ParamGroup.HEAD)],
                              np.concatenate([m.weights[2].ravel(), m.biases[2]]))

    def test_copy_and_replace_head_share_no_memory(self):
        m = fresh((2, 4, 3), seed=2)
        for other in (m.copy(),
                      models.replace_head(m, np.random.default_rng(3), m.n_classes, False)):
            assert not np.shares_memory(other.theta, m.theta)
            for a in other.weights + other.biases:
                assert not np.shares_memory(a, m.theta)

    def test_unpickled_weights_are_views_into_theta(self):
        # the pool sends models by pickle: θ once, not θ and a copy of each layer
        m = fresh((6, 24, 12, 3), seed=0, freeze_first_layer=True)
        data = pickle.dumps(m)
        u = pickle.loads(data)
        assert len(data) < 8_751  # the pickle of θ and every layer
        assert (u.theta.tobytes(), u.layout, u.activation) == (m.theta.tobytes(), m.layout,
                                                               m.activation)
        assert all(np.shares_memory(a, u.theta) for a in u.weights + u.biases)

    def test_replace_head_keeps_backbone_bytes(self):
        m = fresh((2, 4, 3), seed=2)
        m2 = models.replace_head(m, np.random.default_rng(3), 2, False)
        head = m2.layout.layers[-1][0]
        assert m2.theta[:head].tobytes() == m.theta[:head].tobytes()

    def test_one_noise_draw_equals_one_draw_per_group(self):
        # the flat noise vector relies on this stream contract: one draw of
        # nb + nh values equals, and advances the stream like, two draws
        nb, nh = 17, 5
        one, two = np.random.default_rng(4), np.random.default_rng(4)
        flat = one.standard_normal(nb + nh)
        split = np.concatenate([two.standard_normal(nb), two.standard_normal(nh)])
        assert flat.tobytes() == split.tobytes()
        assert one.standard_normal(3).tobytes() == two.standard_normal(3).tobytes()


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        m = fresh((3, 5, 2), seed=8)
        m.weights[0][0, 0] = 1.0 / 3.0  # not exactly representable in decimal
        path = tmp_path / "ckpt.json"
        models.save_checkpoint(m, path, {"seed": 8, "task": "t", "epoch": 3})
        m2 = models.load_checkpoint(path)
        for a, b in zip(m.weights + m.biases, m2.weights + m2.biases):
            assert np.array_equal(a, b)
        provenance = json.loads(path.read_text(encoding="utf-8"))["provenance"]
        assert provenance == {"seed": 8, "task": "t", "epoch": 3}

    def test_save_load_save_byte_identical(self, tmp_path):
        m = fresh((3, 5, 2), seed=8)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        models.save_checkpoint(m, p1, {"seed": 1, "task": "x", "epoch": 0})
        models.save_checkpoint(models.load_checkpoint(p1), p2,
                               {"seed": 1, "task": "x", "epoch": 0})
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError, match="version"):
            models.load_checkpoint(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: "not json", "Expecting value"),
        (lambda doc: [doc], "version"),
        (lambda doc: dict(doc, version=True), "unsupported checkpoint version: true"),
        (lambda doc: '{"version": 1, "version": 1}', "an object repeats the key 'version'"),
        (lambda doc: {k: v for k, v in doc.items() if k != "params"}, "params"),
        (lambda doc: dict(doc, params=doc["params"][:1]), "shorter"),
        (lambda doc: dict(doc, params=[{"w": p["w"][:-1], "b": p["b"]}
                                       for p in doc["params"]]), "reshape"),
        (lambda doc: dict(doc, params=[{"w": p["w"], "b": p["b"][:1]}
                                       for p in doc["params"]]), "reshape"),
        (lambda doc: dict(doc, layer_sizes=["3", 5, 2]), "malformed"),
        # -1 would pass reshape as a wildcard, and 0 sizes an empty layer
        (lambda doc: dict(doc, layer_sizes=[3, -1, 2]),
         r"layer_sizes must be integers >= 1, got \[3, -1, 2\]"),
        (lambda doc: dict(doc, layer_sizes=[3, 0, 2]), "integers >= 1"),
        (lambda doc: dict(doc, layer_sizes=[3, True, 2]), "integers >= 1"),
    ])
    def test_unusable_file_is_a_value_error(self, tmp_path, edit, match):
        path = tmp_path / "ckpt.json"
        models.save_checkpoint(fresh((3, 5, 2), seed=8), path, {})
        edited = edit(json.loads(path.read_text(encoding="utf-8")))
        path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
        with pytest.raises(ValueError, match=match):
            models.load_checkpoint(path)

    @pytest.mark.parametrize("layer, key, value", [(0, "w", math.nan), (0, "b", math.inf),
                                                   (1, "w", -math.inf), (1, "b", math.nan)])
    def test_non_finite_number_names_layer(self, tmp_path, layer, key, value):
        # the head (layer 1) too, though replace_head would discard it
        path = tmp_path / "ckpt.json"
        models.save_checkpoint(fresh((3, 5, 2), seed=8), path, {})
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["params"][layer][key][-1] = value
        path.write_text(json.dumps(doc))
        want = f"layer {layer} holds a non-finite weight or bias"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            models.load_checkpoint(path)
