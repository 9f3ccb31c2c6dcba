import math
import re

import numpy as np
import pytest

from pactune import datasets
from pactune.datasets import Dataset, DatasetSpec, TransferPair


def perceptron_accuracy(x, y, epochs=50):
    """Independent linear-separability oracle: one-vs-rest perceptron."""
    k = int(y.max()) + 1
    n, d = x.shape
    xb = np.hstack([x, np.ones((n, 1))])
    w = np.zeros((k, d + 1))
    for _ in range(epochs):
        for i in range(n):
            pred = int(np.argmax(w @ xb[i]))
            if pred != y[i]:
                w[y[i]] += xb[i]
                w[pred] -= xb[i]
    return float(np.mean(np.argmax(xb @ w.T, axis=1) == y))


class TestGenerate:
    def test_blobs_separable_perceptron_oracle(self):
        spec = DatasetSpec("blobs", n=100, seed=3, classes=2, dim=2,
                           separation=10.0, class_std=0.1)
        ds = datasets.generate(spec)
        assert perceptron_accuracy(ds.x, ds.y) == 1.0

    def test_same_seed_identical_bytes(self):
        spec = DatasetSpec("two-spirals", n=60, seed=9, noise_std=0.1)
        a, b = datasets.generate(spec), datasets.generate(spec)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_xor_labels_are_sign_parity(self):
        ds = datasets.generate(DatasetSpec("xor", n=200, seed=4, dim=2, noise_std=0.0))
        parity = (np.sum(ds.x < 0, axis=1) % 2).astype(np.int64)
        assert np.array_equal(parity, ds.y)

    @pytest.mark.parametrize("gen,kw", [
        ("blobs", {"classes": 3, "dim": 2}),
        ("two-spirals", {}),
        ("xor", {"dim": 3}),
    ])
    def test_class_counts_balanced_within_one(self, gen, kw):
        ds = datasets.generate(DatasetSpec(gen, n=101, seed=1, **kw))
        counts = np.bincount(ds.y)
        assert counts.max() - counts.min() <= 1

    def test_rotation_and_shift_applied(self):
        base = DatasetSpec("blobs", n=50, seed=5, classes=2, dim=2)
        moved = DatasetSpec("blobs", n=50, seed=5, classes=2, dim=2,
                            rotation_degrees=90.0, shift=1.0)
        a, b = datasets.generate(base), datasets.generate(moved)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(b.x, a.x @ rot.T + 1.0, atol=1e-12)

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError, match="generator"):
            DatasetSpec("moons", n=10)

    @pytest.mark.parametrize("field", ["separation", "class_std", "noise_std", "shift"])
    @pytest.mark.parametrize("gen", ["blobs", "two-spirals", "xor"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scales_that_overflow_rejected(self, gen, field):
        # 1e300 keeps every feature finite, rotated and shifted too; 1e308 would not
        big = {"separation": 1e300, "class_std": 1e300, "noise_std": 1e300, "shift": 1e300}
        ds = datasets.generate(DatasetSpec(gen, n=200, dim=2, rotation_degrees=45, **big))
        assert np.isfinite(ds.x).all()
        want = "separation, class_std, noise_std and shift must be at most 1e+300 in size"
        for value in (1e308, -1e308, math.inf):
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                DatasetSpec(gen, n=200, dim=2, **{field: value})

    def test_transfer_pair_dim_check(self):
        with pytest.raises(ValueError, match="dimension"):
            TransferPair(DatasetSpec("blobs", n=10, dim=2),
                         DatasetSpec("blobs", n=10, dim=3))


class TestDatasetContract:
    @pytest.mark.parametrize("x, y", [
        (np.zeros((3, 2)), np.array([0, -1, 1])),  # a negative label
        (np.zeros((3, 2)), np.array([0, 1])),  # unequal lengths
        (np.zeros(3), np.array([0, 1, 1])),  # 1-D x
        (np.zeros((3, 2)), np.array([0.0, 1.5, 1.0])),  # labels that are not integers
    ])
    def test_rejects(self, x, y):
        with pytest.raises(ValueError, match="dataset: "):
            Dataset(x=x, y=y)

    def test_holds_float64_rows_and_int64_labels(self):
        ds = Dataset(x=[[1, 2], [3, 4]], y=np.array([1, 0], dtype=np.int32))
        assert ds.x.dtype == np.float64 and ds.y.dtype == np.int64
        assert ds.x.tolist() == [[1.0, 2.0], [3.0, 4.0]] and ds.y.tolist() == [1, 0]


class TestFewShot:
    def make(self, n=1000, k=2):
        y = np.repeat(np.arange(k), n // k)
        x = np.random.default_rng(0).standard_normal((n, 3))
        return Dataset(x=x, y=y)

    def test_stratified_50_50(self):
        train, dev = datasets.few_shot_sample(self.make(), 100, seed=1)
        assert len(train) == 100 and len(dev) == 900
        assert np.bincount(train.y).tolist() == [50, 50]

    def test_disjoint(self):
        ds = self.make(200)
        ds.x = np.arange(200, dtype=np.float64).reshape(200, 1).repeat(3, axis=1)
        train, dev = datasets.few_shot_sample(ds, 40, seed=2)
        assert set(train.x[:, 0]).isdisjoint(set(dev.x[:, 0]))

    def test_take_everything_rejected(self):
        with pytest.raises(ValueError, match="dev"):
            datasets.few_shot_sample(self.make(100), 100, seed=0)

    def test_ratio_within_one_sample(self):
        y = np.array([0] * 700 + [1] * 300)
        ds = Dataset(x=np.zeros((1000, 2)), y=y)
        train, _ = datasets.few_shot_sample(ds, 99, seed=3)
        counts = np.bincount(train.y)
        assert abs(counts[0] - 99 * 0.7) <= 1 and abs(counts[1] - 99 * 0.3) <= 1

    def test_seeded_determinism(self):
        a1 = datasets.few_shot_sample(self.make(), 50, seed=7)[0]
        a2 = datasets.few_shot_sample(self.make(), 50, seed=7)[0]
        assert np.array_equal(a1.x, a2.x)


class TestCsv:
    def test_load_small_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,label\n1.0,2.0,0\n2.0,1.0,1\n3.0,0.0,1\n")
        ds = datasets.load_csv(p)
        assert len(ds) == 3
        assert ds.y.tolist() == [0, 1, 1]
        # z-scored columns
        assert np.allclose(ds.x.mean(axis=0), 0.0, atol=1e-12)

    def test_constant_column_maps_to_zero(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,label\n5.0,1.0,0\n5.0,2.0,1\n5.0,3.0,0\n")
        ds = datasets.load_csv(p)
        assert np.all(ds.x[:, 0] == 0.0)

    def test_non_numeric_cell_diagnostic(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,label\n1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(ValueError, match="row 3.*column 'b'"):
            datasets.load_csv(p)

    @pytest.mark.parametrize("text, match", [
        ("a,label\n1.0,0\n1.0,1.5\n", "row 3: the label must be an integer >= 0, "
                                       "got '1.5'"),
        ("a,label\n1.0,0\n1.0,-1\n", "row 3: the label must be an integer >= 0, got '-1'"),
        # n rows populate fewer than n classes; 1e300 does not even fit int64
        ("a,label\n1.0,0\n1.0,1e300\n", "row 3: the label must be below the row count, "
                                         "2, got '1e300'"),
        ("a,label\n1.0,2\n1.0,0\n", "row 2: the label must be below the row count, 2, "
                                     "got '2'"),
        ("a,label\n1.0,0\n1.0,cat\n", "row 3: non-numeric cell in column 'label'"),
        ("a,label\n1.0,0\nnan,1\n", "row 3: non-finite cell in column 'a': 'nan'"),
        ("a,b,label\n1.0,2.0,0\n1.0,-inf,1\n",
         "row 3: non-finite cell in column 'b': '-inf'"),
        ("a,label\n1.0,0\n1.0,Infinity\n",
         "row 3: non-finite cell in column 'label': 'Infinity'"),
        ("a,label\n1.0,0\n1.0\n", "row 3: non-numeric cell in column 'label': ''"),
        ("a,label\n", "no data rows"),
        ("", "empty file"),
        # a model needs an input: zero fan-in broke its initialization
        ("label\n0\n1\n", "no feature columns"),
        # finite cells whose sum overflows: the z-scoring would give NaN
        ("a,b,label\n1e308,1,0\n1e308,2,1\n-1e308,3,0\n2,4,1\n",
         "column 'a': its mean or standard deviation overflows"),
        ("a,b,label\n1,1e308,0\n2,-1e308,1\n",
         "column 'b': its mean or standard deviation overflows"),
    ])
    # an inf cell once reached the z-scoring and warned there before any error;
    # the file is named by the caller, once (see test_cli.TestUnusableFiles)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unusable_file_names_row(self, tmp_path, text, match):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(match)}"):
            datasets.load_csv(p)

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ValueError, match="label"):
            datasets.load_csv(p)

    def test_roundtrip_standardized_features(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("a,b,label\n1.0,10.0,0\n2.0,20.0,1\n4.0,15.0,1\n0.5,12.0,0\n")
        ds1 = datasets.load_csv(raw)
        out = tmp_path / "out.csv"
        datasets.export_csv(ds1, out)
        ds2 = datasets.load_csv(out)
        assert np.allclose(ds1.x, ds2.x, atol=1e-12)
        assert np.array_equal(ds1.y, ds2.y)

    def test_row_order_preserved(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,label\n" + "\n".join(f"{i}.0,{i % 2}" for i in range(10)) + "\n")
        ds = datasets.load_csv(p)
        assert ds.y.tolist() == [i % 2 for i in range(10)]
        assert np.all(np.diff(ds.x[:, 0]) > 0)


class TestBuiltinTasks:
    def test_all_builtins_resolve(self):
        for name in ("blobs-rotate", "spirals-shift", "xor-noise"):
            pair = datasets.builtin_task(name)
            src = datasets.generate(pair.source)
            tgt = datasets.generate(pair.target)
            assert src.dim == tgt.dim
            assert len(tgt) == 1100

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown task"):
            datasets.builtin_task("nope")
