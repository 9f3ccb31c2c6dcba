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


def single_expression_adam(param, m, v, grad, t, lr, beta1, beta2, eps, weight_decay):
    """The update as one expression per line, with its temporaries; the
    in-place kernel must reproduce it bit for bit."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    step = (lr / bc1) * m / (np.sqrt(v / bc2) + eps)
    if weight_decay != 0.0:
        step = step + (lr * weight_decay) * param
    param -= step


def scratch(n):
    return np.empty(n), np.empty(n)


class TestNumpyPath:
    def test_adam_matches_reference(self):
        rng = np.random.default_rng(0)
        param = rng.standard_normal(64)
        m = np.zeros(64)
        v = np.zeros(64)
        grad = rng.standard_normal(64)
        expected, em, ev = reference_adam(param.copy(), m.copy(), v.copy(),
                                          grad, 1, 0.1, 0.9, 0.98, 1e-3, 0.01)
        kernels.adam_update(param, m, v, grad, 1, 0.1, 0.9, 0.98, 1e-3, 0.1 * 0.01,
                            scratch(64))
        assert np.allclose(param, expected, rtol=1e-14)
        assert np.allclose(m, em, rtol=1e-14)
        assert np.allclose(v, ev, rtol=1e-14)

    def test_apply_noise(self):
        param, buf = np.array([1.0, 2.0]), np.empty(2)
        out = kernels.apply_noise(param, np.array([0.5, 0.0]), np.array([2.0, 9.0]), buf)
        assert out is buf and out.tolist() == [2.0, 2.0]
        assert param.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("vector_lr", [False, True])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_adam_equals_single_expression_bitwise(self, vector_lr, weight_decay):
        rng = np.random.default_rng(3)
        n = 37
        lr = rng.uniform(1e-4, 1e-1, n) if vector_lr else 0.05
        param = rng.standard_normal(n)
        m, v = np.zeros(n), np.zeros(n)
        want = param.copy(), m.copy(), v.copy()
        buffers = scratch(n)
        lr_decay = lr * weight_decay if weight_decay else None
        for t in range(1, 8):
            grad = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3)
            kernels.adam_update(param, m, v, grad, t, lr, 0.9, 0.98, 1e-3, lr_decay,
                                buffers)
            single_expression_adam(*want, grad, t, lr, 0.9, 0.98, 1e-3, weight_decay)
            for got, expected in zip((param, m, v), want):
                assert got.tobytes() == expected.tobytes()
