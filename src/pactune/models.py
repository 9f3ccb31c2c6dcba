"""Small MLP classifiers with an explicit backbone/head parameter split.

The head is always the final linear layer; everything before it is the
backbone. Fine-tuning replaces the head (``replace_head``) and there decides
whether the first layer, which plays the role of a fixed feature embedding,
is frozen.

A model owns all its parameters in one contiguous float64 vector ``theta``:
layer by layer, each layer's weights (row-major) before its bias.
``weights[i]`` and ``biases[i]`` are reshaped views into ``theta``, so a
write through them is a write to ``theta``. Only the first layer can be
frozen and the head is the last layer, so the trainable parameters are
always the suffix ``theta[start:]``, laid out ``[backbone | head]``.
A model builds this layout, a ``GroupPacker``, once as ``model.layout``, so
the freeze is fixed at construction; noise log-stds, anchors, noise draws,
gradients and optimizer moments all use its trainable order.

Training gradients come from closed-form numpy backprop (``loss_and_grads``);
the tape in ``autodiff`` is only the oracle the tests check them against,
and no training module imports it. A non-finite number raises
``kernels.NumericsError``.
The constructor rejects an unknown activation, ``forward`` a batch of the
wrong width; the training path trusts what the descent loop checked once.
A descent loop's steps share one ``StepWorkspace``, built once per loop, and
so do its evaluations, as it is the one maker of predictions: the workspace holds one output buffer per layer for
the dev rows and, when the first layer is frozen, computes that layer's dev
output once per loop. The forward pass adds biases and applies activations
in place, and backprop and the softmax gradient overwrite arrays the step
no longer needs, with the operations and their order unchanged, so the
results are those of the plain expressions bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import optim
from .kernels import NumericsError


class ParamGroup(str, Enum):
    BACKBONE = "backbone"
    HEAD = "head"


# name -> (activation, its derivative in terms of its output; relu's is 0 at 0),
# both written over their argument
ACTIVATIONS = {
    "tanh": (lambda z: np.tanh(z, out=z),
             lambda out: np.subtract(1.0, np.multiply(out, out, out=out), out=out)),
    "relu": (lambda z: np.maximum(z, 0.0, out=z),
             lambda out: np.greater(out, 0.0, out=out)),
}


def group_slice(group: ParamGroup, n_backbone: int, n_trainable: int) -> slice:
    """A group's coordinates in a trainable-order vector: backbone, then head."""
    if group is ParamGroup.BACKBONE:
        return slice(0, n_backbone)
    return slice(n_backbone, n_trainable)


@dataclass(frozen=True)
class GroupPacker:
    """Offsets of every layer and group in the flat parameter vector θ.

    ``layers[i]`` is layer i's ``(start, stop, (fan_in, fan_out))`` in θ. The
    first ``n_frozen`` layers (0 or 1) are frozen, so the trainable
    coordinates are ``θ[start:]``; within them the backbone comes first and
    ``group(g)`` gives each group's slice.
    """

    layers: tuple
    n_frozen: int
    start: int
    sizes: dict

    @classmethod
    def for_sizes(cls, layer_sizes, freeze_first_layer: bool = False) -> "GroupPacker":
        if len(layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least input and output sizes")
        layers, stop = [], 0
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            layers.append((stop, stop + fan_in * fan_out + fan_out, (fan_in, fan_out)))
            stop = layers[-1][1]
        n_frozen = int(bool(freeze_first_layer))
        start = layers[0][1] if n_frozen else 0
        head = max(start, layers[-1][0])
        return cls(tuple(layers), n_frozen, start,
                   {ParamGroup.BACKBONE: head - start, ParamGroup.HEAD: stop - head})

    @property
    def size(self) -> int:
        return self.layers[-1][1]

    @property
    def trainable_size(self) -> int:
        return self.size - self.start

    def group(self, group: ParamGroup) -> slice:
        return group_slice(group, self.sizes[ParamGroup.BACKBONE], self.trainable_size)

    def views(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer ``(weight, bias)`` views into ``vec``.

        A vector of θ's size gives every layer; a vector of the trainable
        size gives the trainable layers only.
        """
        offset = self.size - vec.size
        if offset not in (0, self.start):
            raise ValueError(f"views: vector of size {vec.size} fits neither θ "
                             f"({self.size}) nor its trainable part")
        out = []
        for start, stop, shape in self.layers:
            if start >= offset:
                mid = start - offset + shape[0] * shape[1]
                out.append((vec[start - offset:mid].reshape(shape),
                            vec[mid:stop - offset]))
        return out

    def per_coordinate(self, backbone: float, head: float) -> np.ndarray:
        """A trainable-order vector holding one value per group."""
        return np.concatenate([np.full(self.sizes[ParamGroup.BACKBONE], backbone),
                               np.full(self.sizes[ParamGroup.HEAD], head)])

    def pack(self, model: "MLPClassifier", group: ParamGroup) -> np.ndarray:
        """A copy of the group's parameters."""
        return model.theta[self.start:][self.group(group)].copy()

    def unpack_into(self, model: "MLPClassifier", group: ParamGroup,
                    flat: np.ndarray) -> None:
        if flat.shape != (self.sizes[group],):
            raise ValueError(
                f"unpack_into: expected shape ({self.sizes[group]},), got {flat.shape}")
        model.theta[self.start:][self.group(group)] = flat


class MLPClassifier:
    """Fully-connected classifier; ``layer_sizes = [d_in, hidden..., classes]``.

    ``theta`` holds every parameter (a zero vector when not given);
    ``weights[i]`` (fan_in, fan_out) and ``biases[i]`` (fan_out,) are views
    into it and cannot be rebound, so the model and ``theta`` never drift
    apart. ``layout``, built here, fixes which layers train; the freeze
    cannot change afterwards.
    """

    def __init__(self, layer_sizes, theta: np.ndarray | None = None,
                 activation: str = "tanh", freeze_first_layer: bool = False):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation '{activation}'; "
                             f"expected one of {sorted(ACTIVATIONS)}")
        self.layer_sizes = list(layer_sizes)
        self.layout = GroupPacker.for_sizes(self.layer_sizes, freeze_first_layer)
        self.theta = np.zeros(self.layout.size) if theta is None \
            else np.asarray(theta, dtype=np.float64)
        weights, biases = zip(*self.layout.views(self.theta))
        self._weights, self._biases = tuple(weights), tuple(biases)
        self.activation = activation

    @property
    def freeze_first_layer(self) -> bool:
        return self.layout.n_frozen == 1

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        return self._weights

    @property
    def biases(self) -> tuple[np.ndarray, ...]:
        return self._biases

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    def copy(self) -> "MLPClassifier":
        return MLPClassifier(self.layer_sizes, self.theta.copy(), self.activation,
                             self.freeze_first_layer)

    def __reduce__(self):
        """Pickle as the constructor's arguments: θ is sent once, and an unpickled
        model's weights are views into its θ again."""
        return MLPClassifier, (self.layer_sizes, self.theta, self.activation,
                               self.freeze_first_layer)

    def _outputs(self, params, x: np.ndarray, out=None, first: int = 0,
                 ) -> list[np.ndarray]:
        """Layer ``first``'s input ``x``, then each later layer's output: hidden
        activations and the logits, for the per-layer ``(w, b)`` list
        ``params``; the one forward loop of every pass. Each output is written
        into ``out[i]`` when ``out`` (one buffer per layer for ``x``'s rows) is
        given, else into a fresh array, and the bias and activation are applied
        in place; ``x`` is trusted to fit. A non-finite layer output raises
        ``NumericsError``, the guard of every training step.
        """
        act = ACTIVATIONS[self.activation][0]
        last = self.n_layers - 1
        outs = [x]
        for i in range(first, self.n_layers):
            w, b = params[i]
            z = np.matmul(outs[-1], w, out=None if out is None else out[i])
            z += b
            if not np.isfinite(z).all():
                raise NumericsError(f"layer {i} output is not finite")
            if i < last:
                act(z)
            outs.append(z)
        return outs

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Logits for a batch. No ``src`` code calls it: it is kept for perfbench's
        tracer and as the tests' reference for ``StepWorkspace.predict_eval``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"forward: batch shape {x.shape} does not match "
                             f"input size {self.input_dim}")
        return self._outputs(list(zip(self.weights, self.biases)), x)[-1]


def _softmax_cross_entropy(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of row-softmax vs labels (int64, each a column of
    ``logits``), and its gradient with respect to the logits, computed in place
    of ``logits``, which it returns; stabilized by subtracting the row max."""
    n = len(logits)
    z = logits
    z -= z.max(axis=1, keepdims=True)
    rows = np.arange(n)
    picked = z[rows, labels]
    ez = np.exp(z, out=z)
    denom = ez.sum(axis=1, keepdims=True)
    loss = float(-((picked - np.log(denom)[:, 0]).sum() / n))
    if not math.isfinite(loss):
        raise NumericsError("the loss is not finite")
    grad = ez
    grad /= denom
    grad[rows, labels] -= 1.0
    grad *= 1.0 / n
    return loss, grad


class StepWorkspace:
    """One descent loop's state over ``model``, taken by every step: the
    trainable-order learning rates ``lr`` and ``lr_decay`` (``lr *
    WEIGHT_DECAY``, or None for a loop without weight decay), the loop's
    ``adam`` state, the layer views ``params`` and trainable suffix
    ``trainable`` of ``model.theta``, the buffer ``grad`` (with layer views)
    of the gradient each step's update applies, and the perturbed-θ buffer
    ``noisy`` (with layer views and trainable suffix), a copy of θ that a
    perturbing step writes: the perturbed and stage-1 steps its trainable
    suffix, the random-layer step all of it (it refreshes ``noisy`` from θ,
    then may perturb a frozen layer 0). Stage 1's objective keeps its own scratch.

    Given the loop's evaluation inputs ``eval_x``, it also holds one output
    buffer per layer for their rows, which ``predict_eval`` fills in place.
    A frozen first layer's output stays valid for the whole loop, since
    steps write only ``theta[start:]`` and ``noisy``, so only the first
    evaluation runs (and checks) it; later ones run layers 1 onwards.
    Nothing is kept on the model.
    """

    def __init__(self, model: MLPClassifier, lr_backbone: float, lr_head: float,
                 weight_decay: bool = True, eval_x: np.ndarray | None = None):
        layout = model.layout
        self.model = model
        self.lr = layout.per_coordinate(lr_backbone, lr_head)
        self.lr_decay = self.lr * optim.WEIGHT_DECAY if weight_decay else None
        self.adam = optim.AdamState(layout.trainable_size)
        self.params = layout.views(model.theta)
        self.trainable = model.theta[layout.start:]
        self.grad = np.empty(layout.trainable_size)
        self.grad_views = layout.views(self.grad)
        self.noisy = model.theta.copy()
        self.noisy_params = layout.views(self.noisy)
        self.noisy_trainable = self.noisy[layout.start:]
        if eval_x is not None:
            rows = len(eval_x)
            self.eval_x = eval_x
            self.eval_out = [np.empty((rows, shape[1])) for _, _, shape in layout.layers]
            self.eval_pred = np.empty(rows, dtype=np.intp)
            self._eval_first = 0

    def predict_eval(self) -> np.ndarray:
        """Class predictions for ``eval_x`` at the model's current θ, written
        into ``eval_pred``."""
        first = self._eval_first
        x = self.eval_x if first == 0 else self.eval_out[0]
        logits = self.model._outputs(self.params, x, self.eval_out, first)[-1]
        self._eval_first = self.model.layout.n_frozen
        return np.argmax(logits, axis=1, out=self.eval_pred)


def loss_and_grads(work: StepWorkspace, params, batch_x: np.ndarray,
                   batch_y: np.ndarray) -> float:
    """Cross-entropy of ``work.model`` at the per-layer ``(w, b)`` arrays
    ``params`` (frozen layers included), returned; its gradient over the
    trainable layers goes into ``work.grad`` by backprop. An empty batch
    raises ``ValueError``; the rows are otherwise trusted to fit."""
    if len(batch_x) == 0:
        raise ValueError("loss_and_grads: batch must be nonempty")
    model = work.model
    outs = model._outputs(params, batch_x)
    loss, g = _softmax_cross_entropy(outs[-1], batch_y)
    derivative = ACTIVATIONS[model.activation][1]
    n_frozen = model.layout.n_frozen
    for i, (grad_w, grad_b) in reversed(list(enumerate(work.grad_views, start=n_frozen))):
        g.sum(axis=0, out=grad_b)
        np.matmul(outs[i].T, g, out=grad_w)
        if i > n_frozen:
            g = np.matmul(g, params[i][0].T)
            g *= derivative(outs[i])
    return loss


def _init_layer(w: np.ndarray, rng: np.random.Generator) -> None:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, in place."""
    bound = 1.0 / np.sqrt(w.shape[0])
    w[...] = rng.uniform(-bound, bound, size=w.shape)


def init_weights(layer_sizes, rng: np.random.Generator, activation: str = "tanh",
                 freeze_first_layer: bool = False) -> MLPClassifier:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    model = MLPClassifier(layer_sizes, activation=activation,
                          freeze_first_layer=freeze_first_layer)
    for w in model.weights:
        _init_layer(w, rng)
    return model


def replace_head(model: MLPClassifier, rng: np.random.Generator, n_classes: int,
                 freeze_first_layer: bool) -> MLPClassifier:
    """Fresh final layer for ``n_classes`` classes, with the fine-tuning freeze
    fixed; backbone kept bit-identical."""
    out = MLPClassifier(list(model.layer_sizes[:-1]) + [int(n_classes)],
                        activation=model.activation,
                        freeze_first_layer=freeze_first_layer)
    head = out.layout.layers[-1][0]  # the layers before it have the same layout in both
    out.theta[:head] = model.theta[:head]
    _init_layer(out.weights[-1], rng)
    return out


CHECKPOINT_VERSION = 1


def json_numbers(items, what: str) -> np.ndarray:
    """The JSON list ``items`` as float64. Anything else raises ``ValueError``
    naming ``what``: an item that is not an int or a float (a bool, a numeric
    string), or an integer too large for a float."""
    if type(items) is not list:
        raise ValueError(f"malformed {what}: not a list of numbers")
    for item in items:
        if type(item) not in (int, float):
            raise ValueError(f"malformed {what}: {json.dumps(item)} is not a number")
    try:
        return np.asarray(items, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"malformed {what}: an integer too large for a float") from None


def unique_keys(pairs) -> dict:
    """``json.loads``'s ``object_pairs_hook``: the object of ``pairs``. A key it
    repeats, whose last value ``json.loads`` would keep, raises ``ValueError``."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"an object repeats the key '{key}'")
        obj[key] = value
    return obj


def read_versioned(path, what: str, version: int) -> dict:
    """The JSON object in the file at ``path``, a ``what`` of ``version``. A
    repeated key (``unique_keys``), or a ``version`` that is not that JSON
    integer, raises ``ValueError``."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique_keys)
    found = doc.get("version") if isinstance(doc, dict) else None
    if type(found) is not int or found != version:
        raise ValueError(f"unsupported {what} version: {json.dumps(found)}")
    return doc


def save_checkpoint(model: MLPClassifier, path, provenance: dict) -> None:
    """Versioned JSON checkpoint; decimal float serialization round-trips exactly."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "layer_sizes": list(model.layer_sizes),
        "params": [
            {"w": model.weights[i].ravel().tolist(), "b": model.biases[i].tolist()}
            for i in range(model.n_layers)
        ],
        "activation": model.activation,
        "provenance": {
            "seed": provenance.get("seed"),
            "task": provenance.get("task"),
            "epoch": provenance.get("epoch"),
        },
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
                          encoding="utf-8")


def load_checkpoint(path, activation: str = "tanh") -> MLPClassifier:
    """Read a checkpoint; its model has the activation the file records, or
    ``activation`` for a file that records none. A file that is not a
    checkpoint of this version (``read_versioned``), whose ``layer_sizes`` are
    not integers >= 1, whose arrays are not ``json_numbers`` or do not fit
    them, whose activation is unknown, or that holds a non-finite number, head
    included, raises ``ValueError``."""
    doc = read_versioned(path, "checkpoint", CHECKPOINT_VERSION)
    try:
        sizes, params = doc["layer_sizes"], doc["params"]
        if not all(type(s) is int and s >= 1 for s in sizes):
            raise ValueError(f"malformed checkpoint: layer_sizes must be integers >= 1, "
                             f"got {sizes}")
        if not params or len(params) != len(sizes) - 1:
            raise ValueError(f"params is shorter or longer than layer_sizes {sizes}")
        theta = np.concatenate([
            json_numbers(layer[key], f"checkpoint layer {i} '{key}'").reshape(shape).ravel()
            for i, (layer, fan_in, fan_out) in enumerate(zip(params, sizes[:-1], sizes[1:]))
            for key, shape in (("w", (fan_in, fan_out)), ("b", (fan_out,)))])
        model = MLPClassifier(sizes, theta, activation=doc.get("activation", activation))
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed checkpoint: {e!r}") from e
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"layer {i} holds a non-finite weight or bias")
    return model
