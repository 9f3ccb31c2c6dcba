"""Dense float64 tensors with a recorded tape for reverse-mode gradients,
and every gradient check of the package.

This is the gradient oracle: training takes closed-form gradients
(``models.loss_and_grads``, ``bound.pac_objective``) and the tests check them
against this tape, whose ops ``gradcheck_op`` checks by central differences.
The checks share one central-difference formula
(``central_difference_error``); ``objective_gradcheck`` applies it to the
stage-1 objective J through ``bound.pac_objective``, the function training
uses, and ``gradcheck_suite`` runs acceptance criterion 1's checks. Only
``cli``'s ``cmd_gradcheck`` imports this module, so no training module and
no other command loads it.

Deliberately small: the op set below is everything the classifiers and the
bound arithmetic need, and nothing else. Everything runs in float64 because
the log/exp terms of the bound are ill-conditioned in float32 at small
variances. There is no global tape; a ``Tape`` is created per forward pass
and passed around explicitly, so independent tapes can live on different
threads.

Division is intentionally absent from the op set: every quotient in the
bound is expressed as a product with ``exp(-log_denominator)``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from .bound import (BoundConfig, FixedGamma, FixedK, KTracker, NoiseState,
                    init_noise_state, pac_objective)
from .kernels import NumericsError
from .models import MLPClassifier, StepWorkspace, init_weights

STEP = 1e-5  # the central-difference step of every check


class AutodiffError(Exception):
    """Base class for tape and op failures other than a non-finite number,
    which raises the training path's ``NumericsError``."""


class ShapeError(AutodiffError):
    pass


class Tensor:
    """A float64 array, optionally attached to a tape node.

    Tensors with ``requires_grad`` are always tape leaves or recorded op
    results; plain constants carry no tape reference.
    """

    __slots__ = ("data", "requires_grad", "tape", "node_id")

    def __init__(self, data, requires_grad: bool = False, tape: "Tape | None" = None,
                 node_id: int | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Node:
    __slots__ = ("op", "parents", "pull")

    def __init__(self, op: str, parents: tuple, pull: Callable | None):
        self.op = op
        self.parents = parents  # node ids; None for constant inputs
        self.pull = pull  # upstream grad -> tuple of parent grads


class Tape:
    """Append-only record of ops; node order is topological by construction."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def leaf(self, data, requires_grad: bool = True) -> Tensor:
        if not requires_grad:
            return Tensor(data)
        node_id = len(self.nodes)
        self.nodes.append(_Node("leaf", (), None))
        return Tensor(data, requires_grad=True, tape=self, node_id=node_id)

    def _record(self, op: str, parents: tuple, pull: Callable) -> int:
        node_id = len(self.nodes)
        self.nodes.append(_Node(op, parents, pull))
        return node_id

    def backward(self, root: Tensor) -> "Gradients":
        """Gradient of a scalar root w.r.t. every leaf, one reverse sweep.

        Gradients accumulate additively when a node feeds several consumers;
        leaves never reached from the root get zeros.
        """
        if root.tape is not self:
            raise AutodiffError("backward: root does not belong to this tape")
        if root.data.ndim != 0:
            raise AutodiffError(
                f"backward: root must be a scalar, got shape {root.shape}")
        grads: list[np.ndarray | None] = [None] * len(self.nodes)
        grads[root.node_id] = np.ones((), dtype=np.float64)
        for node_id in range(root.node_id, -1, -1):
            g = grads[node_id]
            if g is None:
                continue
            node = self.nodes[node_id]
            if node.pull is None:
                continue
            for parent_id, pg in zip(node.parents, node.pull(g)):
                if parent_id is None or pg is None:
                    continue
                if grads[parent_id] is None:
                    grads[parent_id] = np.array(pg, dtype=np.float64, copy=True)
                else:
                    grads[parent_id] += pg
        return Gradients(self, grads)


class Gradients:
    """Result of one backward pass; index with the tensor whose grad you want."""

    def __init__(self, tape: Tape, grads: list):
        self._tape = tape
        self._grads = grads

    def __getitem__(self, t: Tensor) -> np.ndarray:
        if t.tape is not self._tape or t.node_id is None:
            raise AutodiffError("gradient requested for a tensor not on this tape")
        g = self._grads[t.node_id]
        if g is None:
            return np.zeros(t.shape, dtype=np.float64)
        return np.broadcast_to(g, t.shape).astype(np.float64, copy=False)


def _common_tape(inputs: Sequence[Tensor]) -> Tape | None:
    tape = None
    for t in inputs:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise AutodiffError("op mixes tensors from different tapes")
    return tape


def _make(op: str, out: np.ndarray, inputs: Sequence[Tensor], pull: Callable) -> Tensor:
    if not np.all(np.isfinite(out)):
        raise NumericsError(f"op '{op}' produced non-finite values")
    tape = _common_tape(inputs)
    if tape is None or not any(t.requires_grad for t in inputs):
        return Tensor(out)
    parents = tuple(t.node_id for t in inputs)
    node_id = tape._record(op, parents, pull)
    return Tensor(out, requires_grad=True, tape=tape, node_id=node_id)


def _reduce_to(shape: tuple, grad: np.ndarray) -> np.ndarray:
    # Undo scalar broadcasting in the backward direction.
    if shape == ():
        return np.sum(grad)
    return grad


def _check_elementwise(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ShapeError(f"op '{op}': shapes {a.shape} and {b.shape} do not match")


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("add", a, b)
    out = a.data + b.data

    def pull(g):
        return _reduce_to(a.shape, g), _reduce_to(b.shape, g)

    return _make("add", out, (a, b), pull)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("sub", a, b)
    out = a.data - b.data

    def pull(g):
        return _reduce_to(a.shape, g), _reduce_to(b.shape, -g)

    return _make("sub", out, (a, b), pull)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise("elementwise-mul", a, b)
    out = a.data * b.data
    a_data, b_data = a.data, b.data

    def pull(g):
        return _reduce_to(a.shape, g * b_data), _reduce_to(b.shape, g * a_data)

    return _make("elementwise-mul", out, (a, b), pull)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"op 'matmul': incompatible shapes {a.shape} and {b.shape}")
    out = a.data @ b.data
    a_data, b_data = a.data, b.data

    def pull(g):
        return g @ b_data.T, a_data.T @ g

    return _make("matmul", out, (a, b), pull)


def add_bias(x, bias) -> Tensor:
    """Row-broadcast add: (n, k) + (k,)."""
    x, bias = as_tensor(x), as_tensor(bias)
    if x.data.ndim != 2 or bias.data.ndim != 1 or x.shape[1] != bias.shape[0]:
        raise ShapeError(
            f"op 'broadcast-add': expected (n, k) + (k,), got {x.shape} and {bias.shape}")
    out = x.data + bias.data

    def pull(g):
        return g, g.sum(axis=0)

    return _make("broadcast-add", out, (x, bias), pull)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    out = np.tanh(x.data)

    def pull(g):
        return (g * (1.0 - out * out),)

    return _make("tanh", out, (x,), pull)


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = np.maximum(x.data, 0.0)
    mask = x.data > 0.0  # subgradient at 0 is 0

    def pull(g):
        return (g * mask,)

    return _make("relu", out, (x,), pull)


def exp(x) -> Tensor:
    x = as_tensor(x)
    with np.errstate(over="ignore"):  # overflow -> inf, rejected by the guard
        out = np.exp(x.data)

    def pull(g):
        return (g * out,)

    return _make("exp", out, (x,), pull)


def log(x) -> Tensor:
    x = as_tensor(x)
    if np.any(x.data <= 0.0):
        raise NumericsError("op 'log': input must be strictly positive")
    out = np.log(x.data)
    x_data = x.data

    def pull(g):
        return (g / x_data,)

    return _make("log", out, (x,), pull)


def square(x) -> Tensor:
    x = as_tensor(x)
    out = x.data * x.data
    x_data = x.data

    def pull(g):
        return (g * (2.0 * x_data),)

    return _make("square", out, (x,), pull)


def tensor_sum(x) -> Tensor:
    x = as_tensor(x)
    out = np.sum(x.data)
    shape = x.shape

    def pull(g):
        return (np.broadcast_to(g, shape),)

    return _make("sum", out, (x,), pull)


def tensor_mean(x) -> Tensor:
    x = as_tensor(x)
    if x.size == 0:
        raise ShapeError("op 'mean': empty input")
    out = np.mean(x.data)
    shape, n = x.shape, x.size

    def pull(g):
        return (np.broadcast_to(g / n, shape),)

    return _make("mean", out, (x,), pull)


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean cross-entropy of row-softmax vs integer labels, fused and stabilized.

    Log-sum-exp is computed after subtracting the row max, so gradients stay
    finite for logits up to about +-1e3.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2:
        raise ShapeError(
            f"op 'softmax-cross-entropy-with-logits': logits must be 2-d, got {logits.shape}")
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(
            f"op 'softmax-cross-entropy-with-logits': labels shape {labels.shape} "
            f"does not match batch size {n}")
    if n == 0:
        raise ShapeError("op 'softmax-cross-entropy-with-logits': empty batch")
    if np.any(labels < 0) or np.any(labels >= k):
        raise ShapeError(
            f"op 'softmax-cross-entropy-with-logits': labels out of range [0, {k})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    log_probs = z - np.log(denom)
    out = -np.mean(log_probs[np.arange(n), labels])
    probs = ez / denom

    def pull(g):
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        return (grad * (g / n),)

    return _make("softmax-cross-entropy-with-logits", out, (logits,), pull)


def gather_rows(x, indices) -> Tensor:
    x = as_tensor(x)
    indices = np.asarray(indices, dtype=np.int64)
    if x.data.ndim != 2 or indices.ndim != 1:
        raise ShapeError(
            f"op 'gather-rows': expected 2-d source and 1-d indices, got "
            f"{x.shape} and {indices.shape}")
    if indices.size and (indices.min() < 0 or indices.max() >= x.shape[0]):
        raise ShapeError(f"op 'gather-rows': indices out of range [0, {x.shape[0]})")
    out = x.data[indices]
    shape = x.shape

    def pull(g):
        grad = np.zeros(shape, dtype=np.float64)
        np.add.at(grad, indices, g)
        return (grad,)

    return _make("gather-rows", out, (x,), pull)


# Registry keyed by op kind, used by the gradcheck command and tests.
OPS = {
    "add": add,
    "sub": sub,
    "elementwise-mul": mul,
    "matmul": matmul,
    "broadcast-add": add_bias,
    "tanh": tanh,
    "relu": relu,
    "exp": exp,
    "log": log,
    "sum": tensor_sum,
    "mean": tensor_mean,
    "square": square,
    "softmax-cross-entropy-with-logits": softmax_cross_entropy,
    "gather-rows": gather_rows,
}


def gradcheck_op(kind: str, seed: int) -> float:
    """Finite-difference check of one op kind on random inputs (shapes <= 8x8).

    Non-smooth or domain-restricted ops get inputs bounded away from their
    kinks and boundaries so the central difference is meaningful.
    """
    if kind not in OPS:
        raise AutodiffError(f"unknown op kind '{kind}'")
    rng = np.random.default_rng(seed)
    r, c = int(rng.integers(1, 9)), int(rng.integers(1, 9))

    if kind in ("add", "sub", "elementwise-mul"):
        shapes = [(r, c), (r, c)]
        args = ()
    elif kind == "matmul":
        k = int(rng.integers(1, 9))
        shapes = [(r, k), (k, c)]
        args = ()
    elif kind == "broadcast-add":
        shapes = [(r, c), (c,)]
        args = ()
    elif kind == "softmax-cross-entropy-with-logits":
        shapes = [(r, c)]
        args = (rng.integers(0, c, size=r),)
    elif kind == "gather-rows":
        m = int(rng.integers(1, 9))
        shapes = [(r, c)]
        args = (rng.integers(0, r, size=m),)
    else:
        shapes = [(r, c)]
        args = ()

    values = []
    for shape in shapes:
        v = rng.standard_normal(shape)
        if kind == "log":
            v = 0.5 + np.abs(v)  # strictly positive, away from 0
        elif kind == "relu":
            v = np.where(np.abs(v) < 0.1, v + 0.2 * np.sign(v) + 0.05, v)
        values.append(v)
    sizes = [v.size for v in values]
    x0 = np.concatenate([v.ravel() for v in values])

    def build(z):
        tape = Tape()
        leaves, off = [], 0
        for shape, n in zip(shapes, sizes):
            leaves.append(tape.leaf(z[off:off + n].reshape(shape)))
            off += n
        out = OPS[kind](*leaves, *args)
        if out.data.ndim != 0:
            out = tensor_sum(out)
        return out, leaves

    return finite_diff_check(build, x0)


def finite_diff_check(build: Callable, x: np.ndarray) -> float:
    """Max relative error between tape gradients and central differences.

    ``build(x)`` must return ``(root, leaves)`` where ``root`` is a recorded
    scalar Tensor and ``leaves`` are the tape leaves whose concatenated
    (raveled) sizes tile ``x`` in order. The analytic gradient comes from one
    backward pass at ``x``; each coordinate is then compared against
    ``(f(x + h e_i) - f(x - h e_i)) / 2h`` with h = ``STEP`` and the error
    normalized by ``max(1, |analytic_i|)`` (``central_difference_error``).
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    root, leaves = build(x)
    total = sum(t.size for t in leaves)
    if total != x.size:
        raise AutodiffError(
            f"finite_diff_check: leaves cover {total} coordinates, x has {x.size}")
    grads = root.tape.backward(root)
    analytic = np.concatenate([grads[t].ravel() for t in leaves]) if leaves else np.array([])

    def value_at(z: np.ndarray, coord: int) -> float:
        try:
            v = build(z)[0].item()
        except NumericsError as e:
            raise NumericsError(
                f"finite_diff_check: non-finite value perturbing coordinate {coord}: {e}"
            ) from e
        if not np.isfinite(v):
            raise NumericsError(
                f"finite_diff_check: non-finite value perturbing coordinate {coord}")
        return v

    return central_difference_error(value_at, analytic, x)


def objective_gradcheck(model: MLPClassifier, noise: NoiseState, batch_x, batch_y,
                        cfg: BoundConfig, seed: int = 0) -> float:
    """Finite-difference check of J over every stage-1 variable.

    The noise draw and gamma are frozen at the base point, and K is the one a
    fresh ``KTracker`` gives, so J is a deterministic function of the
    trainable weights followed by ``NoiseState.params``; both J and its
    gradients come from ``pac_objective``, the function training uses.
    """
    trial = model.copy()
    work = StepWorkspace(trial, 0.0, 0.0)  # no update is taken
    packer = trial.layout
    rng = np.random.Generator(np.random.PCG64(seed))
    tau = rng.standard_normal(packer.trainable_size)
    k = KTracker(cfg.k).value
    n = packer.trainable_size

    def objective(z, at_cfg):
        trial.theta[packer.start:] = z[:n]
        moved = replace(noise, params=z[n:])
        return pac_objective(work, moved, batch_x, batch_y, at_cfg, tau, k,
                             moved.variances())

    x = np.concatenate([model.theta[packer.start:], noise.params])
    frozen = replace(cfg, gamma=FixedGamma(objective(x, cfg)[0].gamma_used))
    _, noise_grad = objective(x, frozen)
    return central_difference_error(
        lambda z, _: objective(z, frozen)[0].j_total,
        np.concatenate([work.grad, noise_grad]), x)


def central_difference_error(value, analytic, x):
    """Max over i of |analytic_i - d_i| / max(1, |analytic_i|), where d_i is
    (value(x + h e_i, i) - value(x - h e_i, i)) / 2h with h = ``STEP``; ``value``
    gets i to name it in an error. A non-finite d_i is nan: it fails every check."""
    errors = []
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = STEP
        numeric = (value(x + step, i) - value(x - step, i)) / (2.0 * STEP)
        errors.append(abs(analytic[i] - numeric) / max(1.0, abs(analytic[i])))
    return float(np.max(errors, initial=0.0))


def gradcheck_suite() -> list[tuple[str, float, float]]:
    """Criterion 1's suite as ``(name, worst error, tolerance)`` rows: each op
    kind over 20 seeds, then J on a fixed 2-2-2 model over 20 noise draws."""
    rows = [(kind, max(gradcheck_op(kind, seed) for seed in range(20)), 1e-4)
            for kind in OPS]
    rng = np.random.default_rng(7)
    model = init_weights([2, 2, 2], rng)
    noise = init_noise_state(model)
    bx, by = rng.standard_normal((8, 2)), rng.integers(0, 2, size=8)
    cfg = BoundConfig(m=8, delta=0.05, gamma=FixedGamma(5.0), k=FixedK(1.0))
    worst_j = max(objective_gradcheck(model, noise, bx, by, cfg, seed=s) for s in range(20))
    return rows + [("stage-1 objective (full J)", worst_j, 1e-3)]
