"""Dense float64 tensors with a recorded tape for reverse-mode gradients,
and every gradient check of the package.

This is the gradient oracle. Training takes closed-form gradients
(``models.loss_and_grads``, ``bound.pac_objective``); ``tape_loss_and_grads``
and ``tape_objective`` record the same loss and objective J on the tape, and
``training_path_errors`` compares the two. ``gradcheck_op`` checks each op of
the tape by central differences, and ``objective_gradcheck`` checks J's
closed-form gradients the same way; the checks share one central-difference
formula (``central_difference_error``). ``gradcheck_suite`` runs acceptance
criterion 1's checks. Only ``cli``'s ``cmd_gradcheck`` imports this module, so
no training module and no other command loads it.

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

import functools
import itertools
import math
from dataclasses import fields, replace
from typing import Callable, Sequence

import numpy as np

from .bound import (AutoGamma, BoundConfig, BoundTerms, FixedGamma, FixedK, KTracker,
                    NoiseState, RunningK, init_noise_state, optimal_gamma, pac_objective)
from .kernels import NumericsError
from .models import MLPClassifier, StepWorkspace, init_weights, loss_and_grads

STEP = 1e-5  # the central-difference step of every check


class AutodiffError(Exception):
    """Base class for tape and op failures other than a non-finite number,
    which raises the training path's ``NumericsError``."""


class ShapeError(AutodiffError):
    pass


class Tensor:
    """A float64 array, attached to its tape node when it is a tape leaf or a
    recorded op result; plain constants carry no tape reference."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, tape: "Tape | None" = None, node_id: int | None = None):
        self.data = np.asarray(data, dtype=np.float64)
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
        return f"Tensor(shape={self.shape}, on_tape={self.tape is not None})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Tape:
    """Append-only record of ops; node order is topological by construction.
    A node is its parents' ids (None for a constant input) and its pull-back,
    upstream grad -> tuple of parent grads (None for a leaf)."""

    def __init__(self):
        self.nodes: list[tuple[tuple, Callable | None]] = []

    def leaf(self, data) -> Tensor:
        return Tensor(data, tape=self, node_id=self._record((), None))

    def _record(self, parents: tuple, pull: Callable | None) -> int:
        self.nodes.append((parents, pull))
        return len(self.nodes) - 1

    def backward(self, root: Tensor, leaves: Sequence[Tensor]) -> list[np.ndarray]:
        """Gradient of a scalar root w.r.t. each of ``leaves``, one reverse
        sweep: a float64 array shaped like the leaf, zeros for a leaf the root
        does not reach. Gradients accumulate additively when a node feeds
        several consumers.
        """
        if any(t.tape is not self for t in (root, *leaves)):
            raise AutodiffError("backward: root or leaf does not belong to this tape")
        if root.data.ndim != 0:
            raise AutodiffError(
                f"backward: root must be a scalar, got shape {root.shape}")
        grads: list[np.ndarray | None] = [None] * len(self.nodes)
        grads[root.node_id] = np.ones((), dtype=np.float64)
        for node_id in range(root.node_id, -1, -1):
            g = grads[node_id]
            if g is None:
                continue
            parents, pull = self.nodes[node_id]
            if pull is None:
                continue
            for parent_id, pg in zip(parents, pull(g)):
                if parent_id is None or pg is None:
                    continue
                if grads[parent_id] is None:
                    grads[parent_id] = np.array(pg, dtype=np.float64, copy=True)
                else:
                    grads[parent_id] += pg
        return [np.zeros(t.shape) if grads[t.node_id] is None else grads[t.node_id]
                for t in leaves]


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
    if tape is None:
        return Tensor(out)
    return Tensor(out, tape=tape, node_id=tape._record(tuple(t.node_id for t in inputs), pull))


def _reduce_to(shape: tuple, grad: np.ndarray) -> np.ndarray:
    # Undo scalar broadcasting in the backward direction.
    if shape == ():
        return np.sum(grad)
    return grad


def _elementwise(op: str, f: Callable, local_grads: Callable) -> Callable:
    """The op ``op`` of two tensors of one shape, or one a scalar: ``f(a, b)``
    is its value and ``local_grads(a, b)`` its two local derivatives."""

    def apply(a, b) -> Tensor:
        a, b = as_tensor(a), as_tensor(b)
        if a.shape != b.shape and a.shape != () and b.shape != ():
            raise ShapeError(f"op '{op}': shapes {a.shape} and {b.shape} do not match")
        a_data, b_data = a.data, b.data

        def pull(g):
            da, db = local_grads(a_data, b_data)
            return _reduce_to(a.shape, g * da), _reduce_to(b.shape, g * db)

        return _make(op, f(a_data, b_data), (a, b), pull)

    return apply


def _unary(op: str, f: Callable, local_grad: Callable) -> Callable:
    """The elementwise op ``op`` of one tensor: ``f(x)`` is its value and
    ``local_grad(x, value)`` its local derivative."""

    def apply(x) -> Tensor:
        x = as_tensor(x)
        x_data, out = x.data, f(x.data)
        return _make(op, out, (x,), lambda g: (g * local_grad(x_data, out),))

    return apply


def _exp(x):
    with np.errstate(over="ignore"):  # overflow -> inf, rejected by the guard
        return np.exp(x)


add = _elementwise("add", np.add, lambda a, b: (1.0, 1.0))
sub = _elementwise("sub", np.subtract, lambda a, b: (1.0, -1.0))
mul = _elementwise("elementwise-mul", np.multiply, lambda a, b: (b, a))
tanh = _unary("tanh", np.tanh, lambda x, out: 1.0 - out * out)
relu = _unary("relu", lambda x: np.maximum(x, 0.0), lambda x, out: x > 0.0)  # 0 at the kink
exp = _unary("exp", _exp, lambda x, out: out)
square = _unary("square", lambda x: x * x, lambda x, out: 2.0 * x)


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


def tensor_sum(x) -> Tensor:
    x = as_tensor(x)
    out = np.sum(x.data)
    shape = x.shape

    def pull(g):
        return (np.broadcast_to(g, shape),)

    return _make("sum", out, (x,), pull)


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
    "sum": tensor_sum,
    "square": square,
    "softmax-cross-entropy-with-logits": softmax_cross_entropy,
}


def gradcheck_op(kind: str, seed: int) -> float:
    """Finite-difference check of one op kind on random inputs (shapes <= 8x8).

    relu gets inputs bounded away from its kink so the central difference is
    meaningful.
    """
    if kind not in OPS:
        raise AutodiffError(f"unknown op kind '{kind}'")
    rng = np.random.default_rng(seed)
    r, c = int(rng.integers(1, 9)), int(rng.integers(1, 9))

    shapes, args = [(r, c)], ()
    if kind in ("add", "sub", "elementwise-mul"):
        shapes = [(r, c), (r, c)]
    elif kind == "matmul":
        k = int(rng.integers(1, 9))
        shapes = [(r, k), (k, c)]
    elif kind == "broadcast-add":
        shapes = [(r, c), (c,)]
    elif kind == "softmax-cross-entropy-with-logits":
        args = (rng.integers(0, c, size=r),)

    values = [rng.standard_normal(shape) for shape in shapes]
    if kind == "relu":
        values = [np.where(np.abs(v) < 0.1, v + 0.2 * np.sign(v) + 0.05, v) for v in values]
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
    analytic = _flat(root.tape.backward(root, leaves))

    def value_at(z: np.ndarray, coord: int) -> float:
        try:  # every op rejects a non-finite result
            return build(z)[0].item()
        except NumericsError as e:
            raise NumericsError(
                f"finite_diff_check: non-finite value perturbing coordinate {coord}: {e}"
            ) from e

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


# --- the training path on the tape ------------------------------------------------

def tape_forward(model: MLPClassifier, params, x) -> Tensor:
    """The MLP's logits recorded on the tape; ``params`` are per-layer ``(w, b)``."""
    h = as_tensor(x)
    for i, (w, b) in enumerate(params):
        h = add_bias(matmul(h, as_tensor(w)), as_tensor(b))
        if i < len(params) - 1:
            h = OPS[model.activation](h)
    return h


def _arrays(packer, vec) -> list[np.ndarray]:
    """``packer.views(vec)`` as one list: each layer's weights, then its bias."""
    return [a for pair in packer.views(vec) for a in pair]


def _flat(grads: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([g.ravel() for g in grads]) if grads else np.array([])


def tape_loss_and_grads(model: MLPClassifier, theta, batch_x, batch_y):
    """Oracle for ``models.loss_and_grads``: the cross-entropy at ``theta`` and
    its trainable-order gradient, by one backward pass over the tape."""
    packer = model.layout
    tape = Tape()
    leaves = [tape.leaf(a) for a in _arrays(packer, theta[packer.start:])]
    params = packer.views(theta)[:packer.n_frozen] + list(zip(leaves[::2], leaves[1::2]))
    loss = softmax_cross_entropy(tape_forward(model, params, batch_x), batch_y)
    return loss.item(), _flat(tape.backward(loss, leaves))


def _tape_group_kl(parts, prior) -> Tensor:
    """One group's KL on the tape, the group's prior log-variance ``prior`` a
    leaf; ``parts`` holds ``(w leaf, log-std leaf, anchor)`` per array."""
    if not parts:
        return Tensor(0.0)

    def total(terms):
        return functools.reduce(add, (tensor_sum(t) for t in terms))

    s = add(total(exp(mul(p, 2.0)) for _, p, _ in parts),
            total(square(sub(w, a)) for w, _, a in parts))
    d = float(sum(a.size for _, _, a in parts))
    log_term = sub(mul(prior, d), mul(total(p for _, p, _ in parts), 2.0))
    return mul(add(mul(s, exp(mul(prior, -1.0))), sub(log_term, d)), 0.5)


def tape_objective(model: MLPClassifier, noise: NoiseState, tau, batch_x, batch_y,
                   cfg: BoundConfig, k: float, l_pac_weight: float = 1.0):
    """Oracle for ``bound.pac_objective`` at the noise draw ``tau`` and K ``k``:
    J recorded on the tape, gamma and K constants. Returns the ``BoundTerms``
    and the gradients ``(dJ/dw, dJ/d noise params)`` the closed form must give."""
    packer = model.layout
    tape = Tape()
    w_leaves = [tape.leaf(w) for w in _arrays(packer, model.theta[packer.start:])]
    p_leaves = [tape.leaf(p) for p in _arrays(packer, noise.log_std)]
    priors = [tape.leaf(np.asarray(noise.params[i])) for i in (-2, -1)]
    noisy = [add(w, mul(exp(p), t)) for w, p, t in zip(w_leaves, p_leaves, _arrays(packer, tau))]
    params = packer.views(model.theta)[:packer.n_frozen] + list(zip(noisy[::2], noisy[1::2]))
    l_train = softmax_cross_entropy(tape_forward(model, params, batch_x), batch_y)
    parts = list(zip(w_leaves, p_leaves, _arrays(packer, noise.anchor())))
    head = len(parts) - 2  # the head is the last layer: its weights and bias
    kl_b, kl_h = _tape_group_kl(parts[:head], priors[0]), _tape_group_kl(parts[head:], priors[1])
    if isinstance(cfg.gamma, FixedGamma):
        gamma = cfg.gamma.value
    else:
        gamma = optimal_gamma(math.log(1.0 / cfg.delta) + kl_b.item() + kl_h.item(),
                              cfg.m, k, cfg.gamma.low, cfg.gamma.high)
    coeff = 1.0 / (gamma * cfg.m)
    const_term = math.log(1.0 / cfg.delta) * coeff + gamma * k * k
    l_pac = mul(add(mul(add(kl_b, kl_h), coeff), const_term), l_pac_weight)
    j = add(l_train, l_pac)

    grads = tape.backward(j, w_leaves + p_leaves + priors)
    terms = BoundTerms(l_train=l_train.item(), kl_backbone=kl_b.item(),
                       kl_head=kl_h.item(), gamma_used=gamma,
                       l_pac=l_pac.item(), j_total=j.item())
    return terms, (_flat(grads[:len(w_leaves)]), _flat(grads[len(w_leaves):]))


def _relative_error(got, want) -> float:
    """max |got - want| / max |want|, 0 when they are equal."""
    diff = np.max(np.abs(np.subtract(got, want)))
    return float(diff and diff / np.max(np.abs(want)))


def training_path_errors():
    """The training path against the tape, for each of the 24 combinations of
    activation, freeze, gamma kind and ``l_pac_weight`` at random shapes: the
    count of ``loss_and_grads``'s loss and gradient values that differ from the
    tape's, and the worst relative error of ``pac_objective``'s ``BoundTerms``
    and two gradients (each relative to its largest entry) against the tape's."""
    combos = itertools.product(("tanh", "relu"), (False, True),
                               (FixedGamma(5.0), AutoGamma(0.01, 10.0)), (1.0, 0.0, 0.3))
    for seed, (activation, freeze, gamma, weight) in enumerate(combos):
        rng = np.random.default_rng(seed)
        sizes = [int(s) for s in rng.integers(1, 7, size=rng.integers(2, 5))]
        sizes.append(int(rng.integers(2, 5)))
        model = init_weights(sizes, rng, activation=activation, freeze_first_layer=freeze)
        packer = model.layout
        noise = init_noise_state(model)
        noise.params[:] += 0.3 * rng.standard_normal(noise.params.size)
        model.theta[packer.start:] += 0.1 * rng.standard_normal(packer.trainable_size)
        bx = rng.standard_normal((int(rng.integers(1, 10)), sizes[0]))
        by = rng.integers(0, sizes[-1], size=bx.shape[0])
        theta = model.theta + 0.5 * rng.standard_normal(model.theta.size)
        work = StepWorkspace(model, 0.0, 0.0)  # no update is taken
        loss = loss_and_grads(work, packer.views(theta), bx, by)
        tape_loss, tape_grad = tape_loss_and_grads(model, theta, bx, by)
        mismatches = int(loss != tape_loss) + int(np.count_nonzero(work.grad != tape_grad))

        cfg = BoundConfig(m=8, gamma=gamma, k=RunningK())
        tau = rng.standard_normal(packer.trainable_size)
        terms, noise_grad = pac_objective(work, noise, bx, by, cfg, tau, 0.7,
                                          noise.variances(), l_pac_weight=weight)
        tape_terms, tape_grads = tape_objective(model, noise, tau, bx, by, cfg, 0.7, weight)
        errors = [_relative_error(getattr(terms, f.name), getattr(tape_terms, f.name))
                  for f in fields(BoundTerms)]
        errors += [_relative_error(got, want)
                   for got, want in zip((work.grad, noise_grad), tape_grads)]
        yield mismatches, float(np.max(errors))


def gradcheck_suite() -> list[tuple[str, float, float]]:
    """Criterion 1's suite as ``(name, worst error, tolerance)`` rows, each
    passing when its error is below its tolerance: each op kind over 20 seeds,
    J by central differences on a fixed 2-2-2 model over 20 noise draws, then
    the training path against the tape, worst over ``training_path_errors``:
    the count of loss and gradient values that differ (so only bit-equality
    passes) and the worst relative error of J's terms and gradients."""
    # np.max, not max: a nan error is the worst, wherever it falls
    rows = [(kind, np.max([gradcheck_op(kind, seed) for seed in range(20)]), 1e-4)
            for kind in OPS]
    rng = np.random.default_rng(7)
    model = init_weights([2, 2, 2], rng)
    noise = init_noise_state(model)
    bx, by = rng.standard_normal((8, 2)), rng.integers(0, 2, size=8)
    cfg = BoundConfig(m=8, delta=0.05, gamma=FixedGamma(5.0), k=FixedK(1.0))
    worst_j = np.max([objective_gradcheck(model, noise, bx, by, cfg, seed=s)
                      for s in range(20)])
    mismatches, worst_pac = np.max(list(training_path_errors()), axis=0)
    return rows + [("stage-1 objective (full J)", worst_j, 1e-3),
                   ("loss_and_grads vs tape", mismatches, 1),
                   ("pac_objective vs tape", worst_pac, 1e-12)]
