"""Two-stage fine-tuning that learns per-parameter noise by minimizing a
PAC-Bayes bound, then continues with perturbed gradient descent using the
learned noise. Training uses closed-form numpy gradients for small MLP
classifiers; a minimal float64 tape-autodiff engine, which also holds every
gradient check, is kept as the oracle that tests and ``pactune gradcheck``
check them against, and only that command loads it. Includes a seeded
transfer-task benchmark harness.
"""

__version__ = "0.1.0"
