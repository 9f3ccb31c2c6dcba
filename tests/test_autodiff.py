import ast
import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import pactune
from pactune import autodiff as ad
from pactune import kernels, models


def scalar_build(fn):
    """Wrap a Tensor->Tensor function as a finite_diff_check builder."""

    def build(z):
        tape = ad.Tape()
        x = tape.leaf(z)
        return fn(x), [x]

    return build


class TestForwardOps:
    def test_matmul_1x2_by_2x1(self):
        out = ad.matmul(ad.as_tensor([[1.0, 2.0]]), ad.as_tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_softmax_xent_uniform(self):
        out = ad.softmax_cross_entropy(ad.as_tensor([[0.0, 0.0]]), [0])
        assert out.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_relu_values(self):
        out = ad.relu(ad.as_tensor([-1.5, 2.0]))
        assert out.data.tolist() == [0.0, 2.0]

    def test_shape_mismatch_names_op_and_shapes(self):
        with pytest.raises(ad.ShapeError, match="matmul.*\\(1, 2\\).*\\(3, 1\\)"):
            ad.matmul(ad.as_tensor([[1.0, 2.0]]), ad.as_tensor([[1.0], [2.0], [3.0]]))
        with pytest.raises(ad.ShapeError, match="add"):
            ad.add(ad.as_tensor([1.0, 2.0]), ad.as_tensor([1.0, 2.0, 3.0]))

    def test_nonfinite_result_rejected(self):
        with pytest.raises(ad.NumericsError, match="exp"):
            ad.exp(ad.as_tensor([1e4]))

    def test_stabilized_xent_extreme_logits(self):
        out = ad.softmax_cross_entropy(ad.as_tensor([[1e3, -1e3]]), [0])
        assert np.isfinite(out.item())
        assert out.item() == pytest.approx(0.0, abs=1e-12)


class TestBackward:
    def test_square_at_three(self):
        tape = ad.Tape()
        x = tape.leaf(np.array(3.0))
        gx, = tape.backward(ad.square(x), [x])
        assert gx == pytest.approx(6.0, abs=1e-12)

    def test_relu_subgradient_zero_on_negative(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([-1.0, 2.0]))
        gx, = tape.backward(ad.tensor_sum(ad.relu(x)), [x])
        assert gx.tolist() == [0.0, 1.0]

    def test_non_scalar_root_rejected(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        with pytest.raises(ad.AutodiffError, match="scalar"):
            tape.backward(ad.square(x), [x])

    def test_root_or_leaf_of_another_tape_rejected(self):
        tape, other = ad.Tape(), ad.Tape()
        x, y = tape.leaf(np.array(1.0)), other.leaf(np.array(2.0))
        with pytest.raises(ad.AutodiffError, match="does not belong"):
            tape.backward(ad.square(x), [y])
        with pytest.raises(ad.AutodiffError, match="does not belong"):
            other.backward(ad.square(x), [y])

    def test_shared_node_accumulates(self):
        tape = ad.Tape()
        x = tape.leaf(np.array(2.0))
        y = ad.add(ad.square(x), ad.mul(x, 3.0))  # x^2 + 3x -> 2x + 3 = 7
        gx, = tape.backward(y, [x])
        assert gx == pytest.approx(7.0, abs=1e-12)

    def test_unreached_leaf_gets_zeros(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        y = tape.leaf(np.array(5.0))
        gx, = tape.backward(ad.square(y), [x])
        assert gx.tolist() == [0.0, 0.0]

    def test_mlp_loss_matches_finite_differences(self):
        # random 3-layer MLP loss on the tape against the central-difference oracle
        rng = np.random.default_rng(42)
        model = models.MLPClassifier([3, 4, 4, 2])
        x_in, labels = rng.standard_normal((5, 3)), rng.integers(0, 2, size=5)

        def build(z):
            tape = ad.Tape()
            params = [(tape.leaf(w), tape.leaf(b)) for w, b in model.layout.views(z)]
            loss = ad.softmax_cross_entropy(ad.tape_forward(model, params, x_in), labels)
            return loss, [t for pair in params for t in pair]

        x0 = rng.standard_normal(model.theta.size) * 0.5
        assert ad.finite_diff_check(build, x0) < 1e-4


class TestFiniteDiffCheck:
    def test_quadratic(self):
        build = scalar_build(lambda x: ad.tensor_sum(ad.square(x)))
        err = ad.finite_diff_check(build, np.array([3.0]))
        assert err < 1e-8

    def test_nonfinite_reports_coordinate(self):
        build = scalar_build(lambda x: ad.tensor_sum(ad.exp(x)))
        top = np.log(np.finfo(np.float64).max)
        with pytest.raises(ad.NumericsError, match="coordinate 0"):
            # exp(x + STEP) overflows for the first coordinate
            ad.finite_diff_check(build, np.array([top - ad.STEP / 2, 1.0]))


class TestProperties:
    @pytest.mark.parametrize("kind", sorted(ad.OPS))
    def test_gradcheck_all_ops(self, kind):
        worst = np.max([ad.gradcheck_op(kind, seed) for seed in range(20)])
        assert worst < 1e-4, f"{kind}: max relative error {worst:.3e}"

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(11)
            tape = ad.Tape()
            a = tape.leaf(rng.standard_normal((4, 4)))
            b = tape.leaf(rng.standard_normal((4, 4)))
            loss = ad.tensor_sum(ad.square(ad.tanh(ad.matmul(a, b))))
            ga, gb = tape.backward(loss, [a, b])
            return loss.item(), ga.copy(), gb.copy()

        l1, ga1, gb1 = run()
        l2, ga2, gb2 = run()
        assert l1 == l2
        assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)

    def test_backward_linearity(self):
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((3, 3))
        a, b = 2.5, -1.25

        def grad_of(combine):
            tape = ad.Tape()
            x = tape.leaf(x0)
            f = ad.tensor_sum(ad.square(x))
            g = ad.tensor_sum(ad.tanh(x))
            return tape.backward(combine(f, g), [x])[0]

        combined = grad_of(lambda f, g: ad.add(ad.mul(f, a), ad.mul(g, b)))
        separate = a * grad_of(lambda f, g: f) + b * grad_of(lambda f, g: g)
        assert np.max(np.abs(combined - separate)) < 1e-12

    def test_tapes_are_independent(self):
        t1, t2 = ad.Tape(), ad.Tape()
        x1 = t1.leaf(np.array(1.0))
        x2 = t2.leaf(np.array(2.0))
        with pytest.raises(ad.AutodiffError, match="different tapes"):
            ad.add(x1, x2)


def drawn_inputs(kind, seed):
    """The leaf values ``gradcheck_op(kind, seed)`` draws."""
    drawn = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "finite_diff_check",
                   lambda build, x: drawn.extend(t.data for t in build(x)[1]) or 0.0)
        ad.gradcheck_op(kind, seed)
    return drawn


def op_bytes(kind, values, seed):
    """The bytes of ``kind``'s value at ``values``, then of each leaf's
    gradient of sum(value * w), w a seeded upstream gradient."""
    tape = ad.Tape()
    leaves = [tape.leaf(v) for v in values]
    out = ad.OPS[kind](*leaves)
    w = np.random.default_rng(seed).standard_normal(out.shape)
    grads = tape.backward(ad.tensor_sum(ad.mul(out, w)), leaves)
    return out.data.tobytes() + b"".join(g.tobytes() for g in grads)


# SHA-256 of op_bytes over seeds 0-2, keyed by op kind; the binary
# elementwise ops also take each operand in turn as a scalar, its first entry.
# Only ops whose arithmetic is correctly rounded (or, for the sums, a fixed
# order of correctly rounded adds) are pinned: the tape's bytes, independent
# of the platform's libm.
OP_BYTES = {
    "add": "3cfa99ee2155b4cfad716b994fe208e11e84d63d62055cb6025a6c4f66d19506",
    "sub": "8fed6437db64d489effc87e78bd884898d7bf64be4e4d760282513f5af78c298",
    "elementwise-mul": "46712b073eefd268c323b2d4ce2b812a9b0380345fdc9f5be47bf964837ad69f",
    "square": "e0534e7a47d0c788ef371f9453f739d05ddd104efc6e94033ef08077df673631",
    "relu": "b1562ad1fed4c20d03c969745949a44255f684494c1d74d20eaea9f18d879357",
    "broadcast-add": "1cf9985da1a4965e29807505e6ead3b672eb8da5100132ae488026db340bff38",
    "sum": "862f604890503df32249f43c0ce7731bcf9b16160165e8057ac491125046b070",
}

SCALAR_BROADCAST = ("add", "sub", "elementwise-mul")


class TestPinnedBytes:
    @pytest.mark.parametrize("kind", sorted(OP_BYTES))
    def test_op_bytes_are_pinned(self, kind):
        digest = hashlib.sha256()
        for seed in range(3):
            values = drawn_inputs(kind, seed)
            cases = [values]
            if kind in SCALAR_BROADCAST:
                a, b = values
                cases += [[a, b.flat[0]], [a.flat[0], b]]
            for case in cases:
                digest.update(op_bytes(kind, case, seed))
        assert digest.hexdigest() == OP_BYTES[kind]

    @pytest.mark.parametrize("kind,f,local", [
        ("tanh", np.tanh, lambda value: 1.0 - value * value),
        ("exp", np.exp, lambda value: value)])
    def test_libm_op_gradient_is_its_derivative_bitwise(self, kind, f, local):
        # the values come from libm; the sum's gradient is then exact arithmetic
        for seed in range(3):
            tape = ad.Tape()
            x = tape.leaf(drawn_inputs(kind, seed)[0])
            out = ad.OPS[kind](x)
            grad, = tape.backward(ad.tensor_sum(out), [x])
            assert out.data.tobytes() == f(x.data).tobytes()
            assert grad.tobytes() == local(out.data).tobytes()


class TestOracleStaysOffTheTrainingPath:
    def test_only_cli_imports_autodiff(self):
        importers = set()
        for path in Path(pactune.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] + [a.name for a in node.names]
                else:
                    continue
                if any("autodiff" in m.split(".") for m in modules):
                    importers.add(path.name)
        assert importers == {"cli.py"}

    def test_no_command_but_gradcheck_loads_the_tape(self):
        # cli imports the tape inside cmd_gradcheck, so importing it loads nothing
        script = "import sys, pactune.cli; sys.exit('pactune.autodiff' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(pactune.__file__).resolve().parents[1]))
        assert subprocess.run([sys.executable, "-c", script], env=env,
                              timeout=60).returncode == 0

    def test_only_a_pooled_benchmark_loads_the_pool(self, tmp_path):
        # cli imports the process pool when a benchmark with workers > 1 (or a
        # reader of cli.ProcessPoolExecutor) first needs it
        script = textwrap.dedent("""
            import sys
            from pactune import cli
            def pool_loaded():
                return {"concurrent.futures.process", "multiprocessing"} & set(sys.modules)
            assert not hasattr(cli, "no_such_name")
            assert cli.main(["generate-data", "--out", "data"]) == 0
            assert not pool_loaded(), "generate-data"
            epochs = ["pretrain.epochs=1", "stage1.epochs=1", "stage2.epochs=1"]
            argv = ["benchmark", "--workers", "1", "--out", "bench"]
            assert cli.main(argv + [a for s in epochs for a in ("--set", s)]) == 0
            assert not pool_loaded(), "benchmark --workers 1"
            import concurrent.futures
            assert cli.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor""")
        env = dict(os.environ, PYTHONPATH=str(Path(pactune.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    def test_the_tape_raises_the_training_paths_numeric_error(self):
        assert ad.NumericsError is kernels.NumericsError
        assert not issubclass(kernels.NumericsError, ad.AutodiffError)
