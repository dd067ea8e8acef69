"""Landing-point surrogate network: forward pass, exact gradients, training."""

from dataclasses import replace

import numpy as np
import pytest

from ttreturn import blackbox
from ttreturn.arm import InterceptionPolicy
from ttreturn.blackbox import (
    Dataset,
    MlpModel,
    TrainConfig,
    OUTPUT_STD_FLOOR,
    _forward_batch,
    mlp_forward,
    mlp_jacobian,
    train,
)
from ttreturn.errors import DegenerateDataset
from ttreturn.optimizer import FeasibleSet

# a box wider than the scenario's, test-local since train takes its box as an argument
WIDE_BOX = FeasibleSet((-np.pi / 2, np.pi / 2), (-np.pi / 4, np.pi / 4))


def random_model(seed=0):
    rng = np.random.default_rng(seed)
    sizes = [2, 4, 4, 4, 4, 2]
    layers = [
        (rng.normal(size=(o, i)), rng.normal(size=o))
        for i, o in zip(sizes[:-1], sizes[1:])
    ]
    return MlpModel(
        layers=layers,
        input_center=np.array([0.1, -0.05]),
        input_half=np.array([0.8, 0.4]),
        output_mean=np.array([-1.0, 0.5]),
        output_std=np.array([0.7, 1.3]),
    )


def zero_model():
    sizes = [2, 4, 4, 4, 4, 2]
    layers = [
        (np.zeros((o, i)), np.zeros(o)) for i, o in zip(sizes[:-1], sizes[1:])
    ]
    return MlpModel(
        layers=layers,
        input_center=np.zeros(2),
        input_half=np.ones(2),
        output_mean=np.array([0.3, -0.4]),
        output_std=np.ones(2),
    )


class TestForward:
    def test_zero_network_returns_output_mean(self):
        model = zero_model()
        for phi in (InterceptionPolicy(0.0, 0.0), InterceptionPolicy(0.5, -0.2)):
            np.testing.assert_allclose(mlp_forward(model, phi), [0.3, -0.4], atol=1e-15)

    def test_input_normalization(self):
        # moving the input center moves the point that maps to zero activation
        model = random_model(3)
        centered = mlp_forward(model, InterceptionPolicy(0.1, -0.05))
        model2 = random_model(3)
        model2.input_center = np.array([0.4, 0.2])
        shifted = mlp_forward(model2, InterceptionPolicy(0.4, 0.2))
        np.testing.assert_allclose(centered, shifted, atol=1e-12)

    def test_output_scaling(self):
        model = random_model(4)
        base = mlp_forward(model, InterceptionPolicy(0.2, 0.1))
        model.output_std = model.output_std * 2.0
        doubled = mlp_forward(model, InterceptionPolicy(0.2, 0.1))
        np.testing.assert_allclose(
            doubled - model.output_mean, 2.0 * (base - model.output_mean), atol=1e-12
        )


class TestJacobian:
    def test_zero_network(self):
        np.testing.assert_array_equal(
            mlp_jacobian(zero_model(), InterceptionPolicy(0.2, 0.1)), np.zeros((2, 2))
        )

    def test_matches_finite_differences(self):
        h = 1e-7
        rng = np.random.default_rng(5)
        for seed in range(5):
            model = random_model(seed)
            t1, t4 = rng.uniform(-0.5, 0.5, 2)
            jac = mlp_jacobian(model, InterceptionPolicy(t1, t4))
            fd = np.zeros((2, 2))
            for col, d in enumerate(((h, 0.0), (0.0, h))):
                hi = mlp_forward(model, InterceptionPolicy(t1 + d[0], t4 + d[1]))
                lo = mlp_forward(model, InterceptionPolicy(t1 - d[0], t4 - d[1]))
                fd[:, col] = (hi - lo) / (2 * h)
            assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) < 1e-6

    def test_small_signal_linearity(self):
        model = random_model(6)
        phi = InterceptionPolicy(0.15, -0.1)
        jac = mlp_jacobian(model, phi)
        base = mlp_forward(model, phi)
        d = np.array([3e-6, -2e-6])
        moved = mlp_forward(model, InterceptionPolicy(phi.theta1 + d[0], phi.theta4 + d[1]))
        np.testing.assert_allclose(moved - base, jac @ d, atol=1e-9)


def affine_dataset(n=400, seed=0):
    rng = np.random.default_rng(seed)
    a = np.array([[0.8, -0.3], [0.2, 1.1]])
    b = np.array([-1.0, 0.7])
    ds = Dataset()
    for _ in range(n):
        t1, t4 = rng.uniform([-1.0, -0.5], [1.0, 0.5])
        ds.records.append(
            (InterceptionPolicy(t1, t4), a @ np.array([t1, t4]) + b)
        )
    return ds


class TestTrain:
    def test_learns_affine_map(self):
        ds = affine_dataset()
        model, history = train(ds, TrainConfig(epochs=1500, seed=0), WIDE_BOX)
        x, y = ds.arrays()
        preds = np.array([mlp_forward(model, phi) for phi, _ in ds.records])
        rmse = np.sqrt(np.mean(np.sum((preds - y) ** 2, axis=1)))
        assert rmse < 1e-2

    def test_overfits_singleton(self):
        ds = Dataset(records=[(InterceptionPolicy(0.3, 0.1), np.array([-1.2, 0.6]))])
        model, _ = train(ds, TrainConfig(epochs=300, seed=1), WIDE_BOX)
        np.testing.assert_allclose(
            mlp_forward(model, InterceptionPolicy(0.3, 0.1)), [-1.2, 0.6], atol=1e-3
        )

    def test_loss_decreases(self):
        ds = affine_dataset(200, seed=2)
        for seed in range(5):
            _, history = train(ds, TrainConfig(epochs=100, seed=seed), WIDE_BOX)
            assert history["train_mse"][-1] <= history["train_mse"][0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            train(Dataset(), TrainConfig(epochs=1), WIDE_BOX)

    @pytest.mark.parametrize(
        "record",
        [
            (InterceptionPolicy(np.nan, 0.1), np.array([0.0, 0.0])),
            (InterceptionPolicy(0.0, 0.0), np.array([0.2, np.inf])),
        ],
    )
    def test_rejects_non_finite_record(self, record):
        ds = affine_dataset(20, seed=8)
        ds.records[4] = record
        with pytest.raises(DegenerateDataset, match="record 5 "):
            train(ds, TrainConfig(epochs=1), WIDE_BOX)

    def test_rejects_identical_policies(self):
        phi = InterceptionPolicy(0.3, 0.1)
        ds = Dataset(
            records=[(phi, np.array([0.0, 0.0])), (phi, np.array([1.0, 1.0]))]
        )
        with pytest.raises(DegenerateDataset):
            train(ds, TrainConfig(epochs=1), WIDE_BOX)

    def test_determinism(self):
        ds = affine_dataset(100, seed=3)
        m1, h1 = train(ds, TrainConfig(epochs=20, seed=9), WIDE_BOX)
        m2, h2 = train(ds, TrainConfig(epochs=20, seed=9), WIDE_BOX)
        for (w1, b1), (w2, b2) in zip(m1.layers, m2.layers):
            assert np.array_equal(w1, w2)
            assert np.array_equal(b1, b2)
        assert h1["train_mse"] == h2["train_mse"]

    def test_validation_split_tracked(self):
        ds = affine_dataset(200, seed=4)
        _, history = train(ds, TrainConfig(epochs=30, seed=0), WIDE_BOX)
        assert len(history["val_mse"]) == 30
        assert np.isfinite(history["val_mse"][-1])


def per_array_adam_train(dataset, cfg):
    """Oracle: the training loop with one Adam update per parameter array,
    a per-batch input normalization and fancy-indexed batches."""
    x, y = dataset.arrays()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    model = blackbox.random_model(rng, WIDE_BOX, lambda fan_in: 1.0 / np.sqrt(fan_in))
    model.output_mean = y.mean(axis=0)
    model.output_std = np.maximum(y.std(axis=0), OUTPUT_STD_FLOOR)
    n = len(dataset)
    n_val = int(round(cfg.validation_fraction * n)) if n >= 10 else 0
    perm = rng.permutation(n)
    x_tr, y_tr = x[perm[n_val:]], y[perm[n_val:]]
    x_val, y_val = x[perm[:n_val]], y[perm[:n_val]]
    y_tr_n = (y_tr - model.output_mean) / model.output_std
    params = [p for pair in model.layers for p in pair]
    m_adam = [np.zeros_like(p) for p in params]
    v_adam = [np.zeros_like(p) for p in params]
    t_step = 0

    def real_mse(xs, ys):
        out, _ = _forward_batch(model, xs)
        pred = out * model.output_std + model.output_mean
        return float(np.mean(np.sum((pred - ys) ** 2, axis=1)))

    history = {"train_mse": [], "val_mse": []}
    for _ in range(cfg.epochs):
        order = rng.permutation(len(x_tr))
        for start in range(0, len(x_tr), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            xb, yb = x_tr[batch], y_tr_n[batch]
            a = (xb - model.input_center) / model.input_half
            acts = [a]
            for w, b in model.layers[:-1]:
                a = np.tanh(a @ w.T + b)
                acts.append(a)
            w, b = model.layers[-1]
            delta = 2.0 * (a @ w.T + b - yb) / len(batch)
            grads = []
            for li in range(len(model.layers) - 1, -1, -1):
                w, _ = model.layers[li]
                grads.append((delta.T @ acts[li], delta.sum(axis=0)))
                if li > 0:
                    delta = (delta @ w) * (1.0 - acts[li] ** 2)
            grad_flat = [g for pair in reversed(grads) for g in pair]
            t_step += 1
            corr1 = 1.0 - cfg.beta1**t_step
            corr2 = 1.0 - cfg.beta2**t_step
            for pi, (p, g) in enumerate(zip(params, grad_flat)):
                m_adam[pi] = cfg.beta1 * m_adam[pi] + (1.0 - cfg.beta1) * g
                v_adam[pi] = cfg.beta2 * v_adam[pi] + (1.0 - cfg.beta2) * g**2
                p -= cfg.learning_rate * (m_adam[pi] / corr1) / (
                    np.sqrt(v_adam[pi] / corr2) + cfg.eps_adam
                )
        history["train_mse"].append(real_mse(x_tr, y_tr))
        history["val_mse"].append(real_mse(x_val, y_val) if n_val > 0 else float("nan"))
    return model.layers, history


class TestFlatAdamOracle:
    # Batches of one row take BLAS's gemv path instead of gemm, where the
    # bias column's place in the [w | b] block decides the last bit. The
    # epoch MSE history runs the same ones-column products on the whole
    # training and validation splits, and the oracle's history runs
    # _forward_batch's a @ w.T + b, so the history is pinned too: on one
    # row (the validation split of batch-of-one, n_val = 1, and the
    # training split of one-record, n_tr = 1) through gemv, and on 1350
    # and 150 rows (benchmark-scale) through gemm.
    @pytest.mark.parametrize(
        "n,data_seed,cfg,batch_size",
        [
            # 135 training points in batches of 32 leave a short last batch
            (150, 6, TrainConfig(epochs=3, seed=4), 32),
            # 135 = 2 * 67 + 1: the last batch is one row
            (150, 6, TrainConfig(epochs=3, seed=4), 67),
            (1, 2, TrainConfig(epochs=5, seed=1), TrainConfig.batch_size),
            # 18 training points, fewer than one batch
            (20, 3, TrainConfig(epochs=4, seed=2), 64),
            (12, 5, TrainConfig(epochs=2, seed=6), 1),
            # the surrogate-build benchmark's dataset size: 1350 training and 150 validation rows
            (1500, 9, TrainConfig(epochs=2, seed=3), TrainConfig.batch_size),
        ],
        ids=["short-last-batch", "one-row-last-batch", "one-record", "n_tr-below-batch", "batch-of-one",
             "benchmark-scale"],
    )
    def test_matches_per_array_loop(self, tmp_path, monkeypatch, n, data_seed, cfg, batch_size):
        monkeypatch.setattr(TrainConfig, "batch_size", batch_size)
        ds = affine_dataset(n, seed=data_seed)
        model, history = train(ds, cfg, WIDE_BOX)
        ref_layers, ref_history = per_array_adam_train(ds, cfg)
        for (w, b), (w_ref, b_ref) in zip(model.layers, ref_layers, strict=True):
            np.testing.assert_array_equal(w, w_ref)
            np.testing.assert_array_equal(b, b_ref)
        assert history.keys() == ref_history.keys()
        for key in history:
            np.testing.assert_array_equal(history[key], ref_history[key])
        # the saved file does not depend on the layers being views into one buffer
        model.save(tmp_path / "trained.json", {})
        replace(model, layers=ref_layers).save(tmp_path / "reference.json", {})
        assert (tmp_path / "trained.json").read_bytes() == (tmp_path / "reference.json").read_bytes()

    def test_layers_share_no_memory(self):
        model, _ = train(affine_dataset(50, seed=7), TrainConfig(epochs=1, seed=0), WIDE_BOX)
        arrays = [p for pair in model.layers for p in pair]
        assert [w.shape for w, _ in model.layers] == [(4, 2), (4, 4), (4, 4), (4, 4), (2, 4)]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)


class TestDatasetIo:
    def test_csv_round_trip(self, tmp_path):
        ds = affine_dataset(25, seed=5)
        path = tmp_path / "data.csv"
        ds.save_csv(path, comments=("seed=5",))
        back = Dataset.load_csv(path)
        assert len(back) == len(ds)
        xa, ya = ds.arrays()
        xb, yb = back.arrays()
        np.testing.assert_allclose(xa, xb, rtol=1e-8)
        np.testing.assert_allclose(ya, yb, rtol=1e-8)


class TestModelIo:
    def test_save_load_round_trip(self, tmp_path):
        model = random_model(7)
        path = tmp_path / "model.json"
        model.save(path, meta={"note": "test"})
        back = MlpModel.load(path)
        phi = InterceptionPolicy(0.25, -0.15)
        np.testing.assert_allclose(mlp_forward(back, phi), mlp_forward(model, phi), atol=1e-15)
        np.testing.assert_allclose(mlp_jacobian(back, phi), mlp_jacobian(model, phi), atol=1e-15)

