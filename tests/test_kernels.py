import hashlib

import numpy as np
import pytest

from pactune import kernels


def reference_adam(param, m, v, grad, t, lr, b1, b2, eps, wd):
    m = b1 * m + (1 - b1) * grad
    v = b2 * v + (1 - b2) * grad * grad
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    param = param - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * param
    return param, m, v


def seeded_run(vector_lr, n=37):
    """A scalar or per-coordinate rate, a start point and seven gradients
    spanning eight orders of magnitude, from one seed."""
    rng = np.random.default_rng(3)
    lr = rng.uniform(1e-4, 1e-1, n) if vector_lr else 0.05
    param = rng.standard_normal(n)
    return lr, param, [rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3)
                       for _ in range(7)]


# SHA-256 of param, m and v bytes after the seven steps of seeded_run, keyed
# by (vector lr, weight decay): the kernel's output bytes, pinned.
KERNEL_BYTES = {
    (False, 0.0): "b71ba0b36a564fe4c5739a2714137173b8394587dc5ccb446a10edf7c899843a",
    (False, 0.01): "f935cdcdf873e4adc74b57a4255fb7b175410a51a9b4d6b37766308338f85368",
    (True, 0.0): "35e0f48e0f002824e57d8d451eb6ee986c9947dd722d44f1ad8161581413baf2",
    (True, 0.01): "cd1790048ce27c61c2bfd682d8b3c17905546d1d3d1409c9bf6ece1164adbd9b",
}

CASES = pytest.mark.parametrize("vector_lr,weight_decay", sorted(KERNEL_BYTES))


class TestNumpyPath:
    @CASES
    def test_adam_matches_reference(self, vector_lr, weight_decay):
        lr, param, grads = seeded_run(vector_lr)
        m, v = np.zeros(param.size), np.zeros(param.size)
        want = param.copy(), m.copy(), v.copy()
        lr_decay = lr * weight_decay if weight_decay else None
        for t, grad in enumerate(grads, start=1):
            kernels.adam_update(param, m, v, grad, t, lr, 0.9, 0.98, 1e-3, lr_decay)
            want = reference_adam(*want, grad, t, lr, 0.9, 0.98, 1e-3, weight_decay)
            for got, expected in zip((param, m, v), want):
                np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)

    @CASES
    def test_adam_bytes_are_pinned(self, vector_lr, weight_decay):
        lr, param, grads = seeded_run(vector_lr)
        m, v = np.zeros(param.size), np.zeros(param.size)
        lr_decay = lr * weight_decay if weight_decay else None
        for t, grad in enumerate(grads, start=1):
            kernels.adam_update(param, m, v, grad, t, lr, 0.9, 0.98, 1e-3, lr_decay)
        digest = hashlib.sha256(param.tobytes() + m.tobytes() + v.tobytes()).hexdigest()
        assert digest == KERNEL_BYTES[vector_lr, weight_decay]

    def test_apply_noise(self):
        param, buf = np.array([1.0, 2.0]), np.empty(2)
        out = kernels.apply_noise(param, np.array([0.5, 0.0]), np.array([2.0, 9.0]), buf)
        assert out is buf and out.tolist() == [2.0, 2.0]
        assert param.tolist() == [1.0, 2.0]
