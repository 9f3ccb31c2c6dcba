"""Span tracer that wraps pactune's public functions from outside the package.

Each wrapped call records a span: its duration, and the part of it that its
child spans cover, so every layer gets a total and a self time. Spans are
aggregated in memory by name (calls, total, self); no program file changes.

A function imported by name into another module (``pipeline`` imports
``pac_objective``, ``loss_and_grads``, ``pgd_step`` and ``adam_step``) is
looked up in the importing module at call time, so the wrapper replaces the
name in every module listed in ``sites_for``. ``Tracer.uninstall`` restores
the originals, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

F64 = 8  # bytes per float64 element


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total, self]
        self.counters = defaultdict(int)
        self._stack = []
        self._installed = []

    def _open(self) -> tuple[list, float]:
        frame = [0.0]  # time covered by child spans
        self._stack.append(frame)
        return frame, perf_counter()

    def _close(self, name: str, frame: list, start: float) -> None:
        elapsed = perf_counter() - start
        self._stack.pop()
        stats = self.spans[name]
        stats[0] += 1
        stats[1] += elapsed
        stats[2] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed

    def wrap(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(tracer, args, kwargs, result)`` adds counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, start = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, frame, start)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def span_class(self, name: str, cls):
        """Subclass of a context-manager class whose ``with`` block is one span."""
        tracer = self

        class Spanned(cls):
            def __enter__(self):
                self._trace_span = tracer._open()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._close(name, *self._trace_span)

        Spanned.__name__ = cls.__name__
        return Spanned

    def install(self, layers) -> None:
        """Wrap every site of the named layers (see ``sites_for``)."""
        for name, sites, after, kind in sites_for(layers):
            original = getattr(*sites[0])
            wrapped = (self.span_class(name, original) if kind == "class"
                       else self.wrap(name, original, after))
            for owner, attr in sites:
                self._installed.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0


# --- counters computed at the call site ---------------------------------------


def _count_tape(tracer, args, kwargs, result):
    tracer.counters["autodiff.tape_nodes"] += len(args[0].nodes)


def _count_pack(tracer, args, kwargs, result):
    tracer.counters["models.copy_bytes"] += 2 * F64 * result.size  # read + write


def _count_unpack(tracer, args, kwargs, result):
    flat = args[3] if len(args) > 3 else kwargs["flat"]
    tracer.counters["models.copy_bytes"] += 2 * F64 * flat.size


def _count_adam_step(tracer, args, kwargs, result):
    tracer.counters["optim.applied"] += bool(result)


def _count_adam_update(tracer, args, kwargs, result):
    # reads param, m, v, grad; writes param, m, v
    tracer.counters["kernels.bytes"] += 7 * F64 * args[0].size


def _count_apply_noise(tracer, args, kwargs, result):
    # reads param, std, tau; writes the result
    tracer.counters["kernels.bytes"] += 4 * F64 * args[0].size


def _count_evaluate(tracer, args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    tracer.counters["pipeline.evaluate_rows"] += len(data)


def sites_for(layers):
    """(span name, [(owner, attribute)...], counter hook, kind) for each layer.

    The first site is where the original is read from.
    """
    from pactune import autodiff, bound, cli, datasets, kernels, models, optim, pgd, \
        pipeline

    table = {
        "autodiff": [
            ("autodiff.backward", [(autodiff.Tape, "backward")], _count_tape, "fn"),
        ],
        "models": [
            ("models.forward", [(models.MLPClassifier, "forward")], None, "fn"),
            ("models.pack", [(models.GroupPacker, "pack")], _count_pack, "fn"),
            ("models.unpack", [(models.GroupPacker, "unpack_into")], _count_unpack, "fn"),
        ],
        "pgd": [
            ("pgd.loss_and_grads", [(pgd, "loss_and_grads"),
                                    (pipeline, "loss_and_grads")], None, "fn"),
            ("pgd.pgd_step", [(pgd, "pgd_step"), (pipeline, "pgd_step")], None, "fn"),
            ("pgd.random_layer_noise_step", [(pgd, "random_layer_noise_step"),
                                             (pipeline, "random_layer_noise_step")],
             None, "fn"),
        ],
        "bound": [
            ("bound.pac_objective", [(bound, "pac_objective"),
                                     (pipeline, "pac_objective")], None, "fn"),
            # the tape KL inside the objective, and the closed form for diagnostics
            ("bound.kl", [(bound, "_group_kl")], None, "fn"),
            ("bound.kl", [(bound, "kl_diag_vs_isotropic"),
                          (pipeline, "kl_diag_vs_isotropic")], None, "fn"),
        ],
        "optim": [
            ("optim.adam_step", [(optim, "adam_step"), (pgd, "adam_step"),
                                 (pipeline, "adam_step")], _count_adam_step, "fn"),
        ],
        "kernels": [
            ("kernels.adam_update", [(kernels, "adam_update")], _count_adam_update, "fn"),
            ("kernels.apply_noise", [(kernels, "apply_noise")], _count_apply_noise, "fn"),
        ],
        "pipeline": [
            ("pipeline.pretrain", [(pipeline, "pretrain_model")], None, "fn"),
            ("pipeline.stage1", [(pipeline, "stage1_train")], None, "fn"),
            ("pipeline.stage2", [(pipeline, "stage2_train")], None, "fn"),
            ("pipeline.vanilla", [(pipeline, "vanilla_finetune")], None, "fn"),
            ("pipeline.noise_injection", [(pipeline, "noise_injection_finetune")],
             None, "fn"),
            ("pipeline.evaluate", [(pipeline, "evaluate")], _count_evaluate, "fn"),
        ],
        "datasets": [
            ("datasets.generate", [(datasets, "generate")], None, "fn"),
            ("datasets.few_shot_sample", [(datasets, "few_shot_sample")], None, "fn"),
        ],
        "cli": [
            ("cli.benchmark", [(cli, "cmd_benchmark")], None, "fn"),
            ("cli.load_config", [(cli, "load_config")], None, "fn"),
            ("cli.serial_pretrain", [(cli, "pretrain_for_task")], None, "fn"),
            ("cli.pool", [(cli, "ProcessPoolExecutor")], None, "class"),
            ("cli.write", [(cli, "_write_outputs")], None, "fn"),
        ],
    }
    for layer in layers:
        yield from table[layer]
