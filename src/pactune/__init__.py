"""Two-stage fine-tuning that learns per-parameter noise by minimizing a
PAC-Bayes bound, then continues with perturbed gradient descent using the
learned noise. Training uses closed-form numpy gradients for small MLP
classifiers; a minimal float64 tape-autodiff engine, which also holds every
gradient check, is kept as the oracle that tests and ``pactune gradcheck``
check them against, and only that command loads it. Includes a seeded
transfer-task benchmark harness.
"""

from .bound import (AutoGamma, BoundConfig, BoundTerms, FixedGamma, FixedK,
                    KTracker, NoiseState, RunningK, generic_bound, init_noise_state,
                    kl_diag_vs_isotropic, l_pac, load_noise_state, optimal_gamma,
                    pac_objective, save_noise_state)
from .datasets import (Dataset, DatasetSpec, TransferPair, builtin_task,
                       export_csv, few_shot_sample, generate, load_csv)
from .kernels import BACKEND, NumericsError
from .models import (GroupPacker, MLPClassifier, ParamGroup, StepWorkspace,
                     init_weights, load_checkpoint, replace_head, save_checkpoint)
from .optim import AdamState, Constant, StepDecay, adam_step, schedule_value
from .pgd import pgd_step, random_layer_noise_step
from .pipeline import (DivergenceError, RunRecord, Stage1Config, Stage2Config,
                       evaluate, importance_ranking, metrics,
                       noise_injection_finetune, pretrain_model, run_finetune,
                       stage1_train, stage2_train, vanilla_finetune)

__version__ = "0.1.0"
