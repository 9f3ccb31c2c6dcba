import math

import numpy as np
import pytest

from pactune.autodiff import NumericsError
from pactune.optim import (WEIGHT_DECAY, AdamState, Constant, StepDecay, adam_step,
                           schedule_value)


class TestAdam:
    def test_first_step_hand_oracle(self):
        # t=1: m_hat = g, v_hat = g^2 -> delta = -lr / (1 + eps)
        st = AdamState(1)
        p = np.array([0.0])
        assert adam_step(st, p, np.array([1.0]), lr=0.1) is True  # every return applies
        assert p[0] == pytest.approx(-0.1 / 1.001, abs=1e-15)
        assert st.t == 1

    def test_zero_grad_no_motion(self):
        st = AdamState(3)
        p = np.array([1.0, -2.0, 0.5])
        before = p.copy()
        for _ in range(10):
            adam_step(st, p, np.zeros(3), lr=0.1)
        assert np.array_equal(p, before)

    def test_updates_scale_linearly_with_lr(self):
        def one_step(lr):
            st = AdamState(2)
            p = np.zeros(2)
            adam_step(st, p, np.array([1.0, -0.5]), lr=lr)
            return p

        small, large = one_step(0.01), one_step(0.03)
        assert np.allclose(large, 3.0 * small, rtol=1e-12)

    def test_two_groups_independent_lrs(self):
        # a per-coordinate learning-rate vector gives each coordinate its own rate
        st = AdamState(2)
        p = np.zeros(2)
        adam_step(st, p, np.array([1.0, 1.0]), lr=np.array([0.1, 0.2]))
        assert p[1] == pytest.approx(2.0 * p[0], rel=1e-12)

    def test_per_coordinate_lr_matches_per_group_updates_bitwise(self):
        # one update over [a | b] with an lr vector equals one update per
        # group with scalar rates, in parameters and moments, bit for bit
        rng = np.random.default_rng(0)
        sizes, rates = (5, 3), (1e-3, 1e-2)
        params = [rng.standard_normal(n) for n in sizes]
        fused = np.concatenate(params)
        fused_state = AdamState(fused.size)
        states = [AdamState(n) for n in sizes]
        for _ in range(4):
            grads = [rng.standard_normal(n) for n in sizes]
            for decay in (True, False):
                lr = np.concatenate([np.full(n, r) for n, r in zip(sizes, rates)])
                adam_step(fused_state, fused, np.concatenate(grads), lr,
                          lr_decay=lr * WEIGHT_DECAY if decay else None)
                for st, p, g, r in zip(states, params, grads, rates):
                    adam_step(st, p, g, r, lr_decay=r * WEIGHT_DECAY if decay else None)
        assert np.concatenate(params).tobytes() == fused.tobytes()
        assert np.concatenate([st.m for st in states]).tobytes() == fused_state.m.tobytes()
        assert np.concatenate([st.v for st in states]).tobytes() == fused_state.v.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_grad_raises_before_any_write(self, bad):
        rng = np.random.default_rng(0)
        st = AdamState(3)
        p = rng.standard_normal(3)
        adam_step(st, p, rng.standard_normal(3), lr=0.1, lr_decay=0.1 * WEIGHT_DECAY)
        before = (p.tobytes(), st.m.tobytes(), st.v.tobytes(), st.t)
        with pytest.raises(NumericsError, match="^the gradient is not finite$"):
            adam_step(st, p, np.array([0.5, bad, -0.5]), lr=0.1,
                      lr_decay=0.1 * WEIGHT_DECAY)
        assert (p.tobytes(), st.m.tobytes(), st.v.tobytes(), st.t) == before

    def test_weight_decay_decoupled(self):
        # zero gradient + decay: pure shrink by lr * wd per step
        st = AdamState(1)
        p = np.array([2.0])
        adam_step(st, p, np.zeros(1), lr=0.1, lr_decay=0.1 * WEIGHT_DECAY)
        assert p[0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.01), rel=1e-12)

    def test_decay_exclusion_per_group(self):
        # the vector stepped without a decay rate is untouched by
        # zero-gradient steps
        w_state, noise_state = AdamState(1), AdamState(1)
        w, noise = np.array([1.0]), np.array([1.0])
        for _ in range(5):
            adam_step(w_state, w, np.zeros(1), lr=0.1, lr_decay=0.1 * WEIGHT_DECAY)
            adam_step(noise_state, noise, np.zeros(1), lr=0.1)
        assert w[0] < 1.0
        assert noise[0] == 1.0


class TestSchedules:
    def test_step_decay_values(self):
        sched = StepDecay(0.5, 0.9, 10, 0.01)
        assert schedule_value(sched, 0) == 0.5
        assert schedule_value(sched, 10) == pytest.approx(0.45)
        assert schedule_value(sched, 25) == pytest.approx(0.405)
        assert schedule_value(sched, 10_000) == 0.01

    def test_constant(self):
        assert schedule_value(Constant(0.1), 123) == 0.1

    def test_pure_function_of_index(self):
        sched = StepDecay(0.5, 0.9, 10, 0.01)
        a = [schedule_value(sched, i) for i in range(50)]
        b = [schedule_value(sched, i) for i in range(50)]
        assert a == b

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            schedule_value(Constant(0.1), -1)

    def test_overflowing_power_is_inf(self):
        sched = StepDecay(5e-324, 1e200, 1, 5e-324)
        assert schedule_value(sched, 1) == 5e-324 * 1e200
        # 1e200 ** 2 overflows, but 5e-324 * 1e400 ~ 4.94e76 is a float
        assert schedule_value(sched, 2) == pytest.approx(5e-324 * 1e200 * 1e200, rel=1e-12)
        assert schedule_value(sched, 10_000) == math.inf

    def test_underflowing_power_keeps_a_value_above_the_floor(self):
        sched = StepDecay(1e300, 1e-200, 1, 1e-300)
        assert schedule_value(sched, 1) == 1e300 * 1e-200
        # 1e-200 ** 2 underflows to 0, but 1e300 * 1e-400 = 1e-100 is above the floor
        assert schedule_value(sched, 2) == pytest.approx(1e-100, rel=1e-12)
        assert schedule_value(sched, 3) == 1e-300
