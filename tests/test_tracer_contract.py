"""The benchmark's tracer against the program it wraps.

``perfbench/tracer.py`` replaces program functions by name from outside the
package. It is loaded here as it is, so a renamed or deleted traced name, or a
span counted twice, fails this suite and not only the traced benchmark runs.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pactune import datasets, pipeline
from pactune.bound import BoundConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
LAYERS = ("autodiff", "models", "pgd", "bound", "optim", "kernels", "pipeline",
          "datasets", "cli")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_site_and_uninstall_restores_them():
    tracer_module = load_tracer()
    sites = [site for _, owner_sites, _, _ in tracer_module.sites_for(LAYERS)
             for site in owner_sites]
    originals = [getattr(owner, attr) for owner, attr in sites]
    tracer = tracer_module.Tracer()
    tracer.install(LAYERS)
    try:
        wrapped = [getattr(owner, attr) for owner, attr in sites]
    finally:
        tracer.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(getattr(owner, attr) is o for (owner, attr), o in zip(sites, originals))


@pytest.fixture(scope="module")
def finetune_inputs():
    pair = datasets.TransferPair(
        source=datasets.DatasetSpec("blobs", n=120, seed=1, dim=2),
        target=datasets.DatasetSpec("blobs", n=80, seed=2, dim=2, rotation_degrees=20.0))
    pretrained = pipeline.pretrain_model(datasets.generate(pair.source), [2, 4, 2],
                                         epochs=2, batch_size=32, lr_backbone=3e-3,
                                         lr_head=1e-2, seed=0)
    train, dev = datasets.few_shot_sample(datasets.generate(pair.target), 40, seed=3)
    return pretrained, train, dev


def test_each_kl_evaluation_is_one_span(finetune_inputs):
    # stage 1 evaluates two group KLs per objective, stage 2 two per epoch
    pretrained, train, dev = finetune_inputs
    stage1 = pipeline.Stage1Config(epochs=2, batch_size=16)
    stage2 = pipeline.Stage2Config(epochs=3, batch_size=16)
    tracer = load_tracer().Tracer()
    tracer.install(("bound",))
    try:
        pipeline.run_finetune(pretrained, train, dev, "pac-tuning", 1, stage1, stage2,
                              BoundConfig(m=len(train)))
    finally:
        tracer.uninstall()
    assert tracer.calls("bound.pac_objective") == stage1.epochs * int(np.ceil(40 / 16))
    assert tracer.calls("bound.kl") == \
        2 * tracer.calls("bound.pac_objective") + 2 * stage2.epochs


@pytest.mark.parametrize("method", pipeline.METHODS)
def test_each_optimizer_update_is_one_span(finetune_inputs, method):
    # one update per descent step; a stage-1 step updates weights and noise
    pretrained, train, dev = finetune_inputs
    stage1 = pipeline.Stage1Config(epochs=2, batch_size=16)
    stage2 = pipeline.Stage2Config(epochs=3, batch_size=16)
    tracer = load_tracer().Tracer()
    tracer.install(("optim",))
    try:
        pipeline.run_finetune(pretrained, train, dev, method, 1, stage1, stage2,
                              BoundConfig(m=len(train)))
    finally:
        tracer.uninstall()
    batches = int(np.ceil(40 / 16))
    want = (stage1.epochs + stage2.epochs) * batches
    if method == "pac-tuning":
        want += stage1.epochs * batches
    assert tracer.calls("optim.adam_step") == want
