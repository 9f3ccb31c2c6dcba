import numpy as np

from pactune import kernels


def reference_adam(param, m, v, grad, t, lr, b1, b2, eps, wd):
    m = b1 * m + (1 - b1) * grad
    v = b2 * v + (1 - b2) * grad * grad
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    param = param - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * param
    return param, m, v


class TestNumpyPath:
    def test_adam_matches_reference(self):
        rng = np.random.default_rng(0)
        param = rng.standard_normal(64)
        m = np.zeros(64)
        v = np.zeros(64)
        grad = rng.standard_normal(64)
        expected, em, ev = reference_adam(param.copy(), m.copy(), v.copy(),
                                          grad, 1, 0.1, 0.9, 0.98, 1e-3, 0.01)
        kernels.adam_update(param, m, v, grad, 1, 0.1, 0.9, 0.98, 1e-3, 0.01)
        assert np.allclose(param, expected, rtol=1e-14)
        assert np.allclose(m, em, rtol=1e-14)
        assert np.allclose(v, ev, rtol=1e-14)

    def test_apply_noise(self):
        param, buf = np.array([1.0, 2.0]), np.empty(2)
        out = kernels.apply_noise(param, np.array([0.5, 0.0]), np.array([2.0, 9.0]), buf)
        assert out is buf and out.tolist() == [2.0, 2.0]
        assert param.tolist() == [1.0, 2.0]
