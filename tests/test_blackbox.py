"""Landing-point surrogate network: forward pass, exact gradients, training."""

import json
import math
import os
import pathlib
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from ttreturn import blackbox
from ttreturn.arm import InterceptionPolicy
from ttreturn.blackbox import (
    SIZES,
    Dataset,
    MlpModel,
    TrainConfig,
    OUTPUT_STD_FLOOR,
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


def forward_batch(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Numpy oracle: the normalized forward pass of a block of policies; returns the
    normalized output and the hidden activations."""
    a = (x - model.input_center) / model.input_half
    activations = []
    for w, b in model.layers[:-1]:
        a = np.tanh(a @ w.T + b)
        activations.append(a)
    w, b = model.layers[-1]
    return a @ w.T + b, activations


def per_array_adam_train(dataset, cfg):
    """Numpy oracle: the training loop with one Adam update per parameter array,
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
        out, _ = forward_batch(model, xs)
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


# the oracles' shared cases: (n records, dataset seed, config, batch size)
TRAINING_CASES = [
    # 135 training points in batches of 32 leave a short last batch
    (150, 6, TrainConfig(epochs=3, seed=4), 32),
    # 135 = 2 * 67 + 1: the last batch is one row
    (150, 6, TrainConfig(epochs=3, seed=4), 67),
    # no validation split: its history is NaN
    (1, 2, TrainConfig(epochs=5, seed=1), TrainConfig.batch_size),
    # 18 training points, fewer than one batch
    (20, 3, TrainConfig(epochs=4, seed=2), 64),
    (12, 5, TrainConfig(epochs=2, seed=6), 1),
    # the surrogate-build benchmark's dataset size: 1350 training and 150 validation rows
    (1500, 9, TrainConfig(epochs=2, seed=3), TrainConfig.batch_size),
    # 128 training points: two whole batches of mlp.c's row block (BLOCK, 64 rows)
    (142, 8, TrainConfig(epochs=3, seed=5), 64),
    # 270 = 2 * 100 + 70: each batch runs as tiles of 64 and 36 rows, the last as 64 and 6
    (300, 10, TrainConfig(epochs=3, seed=7), 100),
    # one epoch: only the call that starts the helper on the initial weights and the one that takes the last errors
    (150, 6, TrainConfig(epochs=1, seed=4), 32),
]
TRAINING_IDS = ["short-last-batch", "one-row-last-batch", "one-record", "n_tr-below-batch", "batch-of-one",
                "benchmark-scale", "batch-of-one-block", "batch-above-block", "one-epoch"]


class TestFlatAdamOracle:
    # The kernel sums in its own fixed order and takes tanh as 1 - 2 / (exp(2x) + 1);
    # BLAS's products and numpy's SIMD tanh round differently in the last bits, which
    # a few epochs of Adam carry into the weights (by at most 6e-17 on an x86-64 host
    # with OpenBLAS). The bound, about 4500 ulps of 1.0, leaves room for other BLAS
    # kernels and is far below what a wrong gradient or update rule would leave.
    RTOL, ATOL = 1e-12, 1e-12

    @pytest.mark.parametrize("n,data_seed,cfg,batch_size", TRAINING_CASES, ids=TRAINING_IDS)
    def test_matches_per_array_loop(self, tmp_path, monkeypatch, n, data_seed, cfg, batch_size):
        monkeypatch.setattr(TrainConfig, "batch_size", batch_size)
        ds = affine_dataset(n, seed=data_seed)
        model, history = train(ds, cfg, WIDE_BOX)
        ref_layers, ref_history = per_array_adam_train(ds, cfg)
        for (w, b), (w_ref, b_ref) in zip(model.layers, ref_layers, strict=True):
            np.testing.assert_allclose(w, w_ref, rtol=self.RTOL, atol=self.ATOL)
            np.testing.assert_allclose(b, b_ref, rtol=self.RTOL, atol=self.ATOL)
        assert history.keys() == ref_history.keys()
        for key in history:
            np.testing.assert_allclose(history[key], ref_history[key], rtol=self.RTOL, atol=0.0)
        # the saved file does not depend on the layers being views into one buffer
        model.save(tmp_path / "trained.json", {})
        copies = [(w.copy(), b.copy()) for w, b in model.layers]
        replace(model, layers=copies).save(tmp_path / "copied.json", {})
        assert (tmp_path / "trained.json").read_bytes() == (tmp_path / "copied.json").read_bytes()

    def test_layers_share_no_memory(self):
        model, _ = train(affine_dataset(50, seed=7), TrainConfig(epochs=1, seed=0), WIDE_BOX)
        arrays = [p for pair in model.layers for p in pair]
        assert [w.shape for w, _ in model.layers] == [(4, 2), (4, 4), (4, 4), (4, 4), (2, 4)]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)


def scalar_tanh(x: float) -> float:
    return 1.0 - 2.0 / (math.exp(2.0 * x) + 1.0)


def scalar_dot(pairs) -> float:
    total = 0.0
    for a, b in pairs:
        total += a * b
    return total


def scalar_forward(theta: list, scales: list, x) -> list:
    """Scalar oracle of mlp.c's forward: the normalized policy and each layer's outputs."""
    n_in, w = SIZES[0], 0
    acts = [[(x[j] - scales[j]) / scales[n_in + j] for j in range(n_in)]]
    for l, (fan_in, fan_out) in enumerate(zip(SIZES[:-1], SIZES[1:])):
        out = []
        for _ in range(fan_out):
            total = scalar_dot(zip(theta[w : w + fan_in], acts[-1])) + theta[w + fan_in]
            out.append(scalar_tanh(total) if l + 2 < len(SIZES) else total)
            w += fan_in + 1
        acts.append(out)
    return acts


def scalar_evaluate(theta: list, scales: list, x) -> tuple[list, list]:
    """Scalar oracle of mlp.c's ttr_mlp: the prediction and the 2x2 Jacobian, as lists."""
    n_in, n_out = SIZES[0], SIZES[-1]
    mean, std = scales[2 * n_in : 2 * n_in + n_out], scales[2 * n_in + n_out :]
    acts = scalar_forward(theta, scales, x)
    chain = [[1.0 / scales[n_in + k] if j == k else 0.0 for k in range(n_in)] for j in range(n_in)]
    w = 0
    for l, (fan_in, fan_out) in enumerate(zip(SIZES[:-1], SIZES[1:])):
        rows = []
        for i in range(fan_out):
            sums = [scalar_dot(zip(theta[w : w + fan_in], (row[k] for row in chain))) for k in range(n_in)]
            a = acts[l + 1][i]
            rows.append([(1.0 - a * a) * s if l + 2 < len(SIZES) else std[i] * s for s in sums])
            w += fan_in + 1
        chain = rows
    return [acts[-1][i] * std[i] + mean[i] for i in range(n_out)], chain


def scalar_train(dataset, cfg) -> tuple[list, dict]:
    """Scalar oracle of train: the same draws, then mlp.c's ttr_adam_epoch in plain floats;
    its bias corrections take Python's ** and its tanh math.exp, both libm as in the kernel."""
    x, y = dataset.arrays()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    model = blackbox.random_model(rng, WIDE_BOX, lambda fan_in: 1.0 / np.sqrt(fan_in))
    model.output_mean = y.mean(axis=0)
    model.output_std = np.maximum(y.std(axis=0), OUTPUT_STD_FLOOR)
    n = len(dataset)
    n_val = int(round(cfg.validation_fraction * n)) if n >= 10 else 0
    rows = np.hstack([x, y])[rng.permutation(n)].tolist()
    val_rows, train_rows = rows[:n_val], rows[n_val:]
    theta, scales = model.theta.tolist(), model.scales.tolist()
    n_in, n_out, n_params = SIZES[0], SIZES[-1], len(theta)
    mean, std = scales[2 * n_in : 2 * n_in + n_out], scales[2 * n_in + n_out :]
    m_adam, v_adam, t_step = [0.0] * n_params, [0.0] * n_params, 0

    def mse(records):
        if not records:
            return float("nan")
        total = 0.0
        for record in records:
            out = scalar_forward(theta, scales, record)[-1]
            errors = [out[k] * std[k] + mean[k] - record[n_in + k] for k in range(n_out)]
            total += scalar_dot(zip(errors, errors))
        return total / len(records)

    history = {"train_mse": [], "val_mse": []}
    for _ in range(cfg.epochs):
        order = rng.permutation(len(train_rows)).tolist()
        for start in range(0, len(train_rows), cfg.batch_size):
            batch = [train_rows[r] for r in order[start : start + cfg.batch_size]]
            grad = [0.0] * n_params
            for record in batch:
                acts = scalar_forward(theta, scales, record)
                d = [2.0 * (acts[-1][k] - (record[n_in + k] - mean[k]) / std[k]) / len(batch) for k in range(n_out)]
                offset = n_params
                for l in range(len(SIZES) - 2, -1, -1):
                    fan_in, fan_out = SIZES[l], SIZES[l + 1]
                    offset -= fan_out * (fan_in + 1)
                    a = acts[l]
                    for i in range(fan_out):
                        row = offset + i * (fan_in + 1)
                        for j in range(fan_in):
                            grad[row + j] += d[i] * a[j]
                        grad[row + fan_in] += d[i]
                    if l > 0:
                        d = [scalar_dot((d[i], theta[offset + i * (fan_in + 1) + j]) for i in range(fan_out))
                             * (1.0 - a[j] * a[j]) for j in range(fan_in)]
            t_step += 1
            corr1, corr2 = 1.0 - cfg.beta1**t_step, 1.0 - cfg.beta2**t_step
            for p, g in enumerate(grad):
                m_adam[p] = cfg.beta1 * m_adam[p] + (1.0 - cfg.beta1) * g
                v_adam[p] = cfg.beta2 * v_adam[p] + (1.0 - cfg.beta2) * (g * g)
                theta[p] -= cfg.learning_rate * (m_adam[p] / corr1) / (math.sqrt(v_adam[p] / corr2) + cfg.eps_adam)
        history["train_mse"].append(mse(train_rows))
        history["val_mse"].append(mse(val_rows))
    return theta, history


class TestKernelMatchesScalarOracle:
    """The kernel (mlp.c) against the scalar Python loops above, bit for bit."""

    @pytest.mark.parametrize("n,data_seed,cfg,batch_size", TRAINING_CASES, ids=TRAINING_IDS)
    def test_training(self, monkeypatch, n, data_seed, cfg, batch_size):
        monkeypatch.setattr(TrainConfig, "batch_size", batch_size)
        ds = affine_dataset(n, seed=data_seed)
        model, history = train(ds, cfg, WIDE_BOX)
        theta, ref_history = scalar_train(ds, cfg)
        assert model.theta.tolist() == theta
        np.testing.assert_array_equal(history["train_mse"], ref_history["train_mse"])
        np.testing.assert_array_equal(history["val_mse"], ref_history["val_mse"])
        assert np.isnan(history["val_mse"]).all() == (n < 10)

    @pytest.mark.parametrize("seed", range(8))
    def test_forward_and_jacobian(self, seed):
        model = random_model(seed)
        rng = np.random.default_rng(100 + seed)
        for t1, t4 in rng.uniform(-1.5, 1.5, size=(5, 2)):
            out, jac = scalar_evaluate(model.theta.tolist(), model.scales.tolist(), (t1, t4))
            phi = InterceptionPolicy(t1, t4)
            assert mlp_forward(model, phi).tolist() == out
            assert mlp_jacobian(model, phi).tolist() == jac

    def test_tanh_matches_numpy_and_math(self):
        x = np.linspace(-25.0, 25.0, 200001)
        ours = np.array([scalar_tanh(v) for v in x.tolist()])
        assert np.abs(ours - np.tanh(x)).max() <= 4e-16
        assert np.abs(ours - [math.tanh(v) for v in x.tolist()]).max() <= 4e-16


class TestHelperThread:
    """Each ttr_adam_epoch call takes the previous epoch's errors on a helper thread."""

    def test_concurrent_trainings_match_a_serial_one(self):
        # ctypes releases the GIL, so both trainings' kernel calls, and their helpers, run at
        # once; any scratch memory shared between calls would show in the weights or errors
        ds, cfg = affine_dataset(1500, seed=11), TrainConfig(epochs=150, seed=3)
        model, history = train(ds, cfg, WIDE_BOX)
        results = [None, None]

        def work(i):
            results[i] = train(ds, cfg, WIDE_BOX)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for other, other_history in results:
            assert other.theta.tolist() == model.theta.tolist()
            assert other_history == history

    @pytest.mark.skipif(not pathlib.Path("/proc/self/status").exists(), reason="no /proc/self/status")
    def test_training_without_a_helper_thread_matches(self):
        # under an address-space limit 4 MB above the child's size, no thread stack can be
        # mapped, so pthread_create fails and each call takes its errors itself
        tests, src = pathlib.Path(__file__).resolve().parent, pathlib.Path(blackbox.__file__).parents[1]
        script = (f"import json, resource, sys, threading\n"
                  f"sys.path[:0] = [{str(tests)!r}, {str(src)!r}]\n"
                  "from test_blackbox import WIDE_BOX, affine_dataset\n"
                  "from ttreturn.blackbox import TrainConfig, train\n"
                  "status = open('/proc/self/status').read().split('VmSize:')[1].split()\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (int(status[0]) * 1024 + (4 << 20), resource.RLIM_INFINITY))\n"
                  "try:\n"
                  "    threading.Thread(target=print).start()\n"
                  "    sys.exit('a thread started under the limit')\n"
                  "except RuntimeError:\n"
                  "    pass\n"
                  "model, history = train(affine_dataset(300, seed=11), TrainConfig(epochs=20, seed=3), WIDE_BOX)\n"
                  "print(json.dumps([model.theta.tolist(), history]))\n")
        child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        model, history = train(affine_dataset(300, seed=11), TrainConfig(epochs=20, seed=3), WIDE_BOX)
        assert json.loads(child.stdout.splitlines()[-1]) == [model.theta.tolist(), history]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    def test_golden_training_pinned_to_one_cpu(self, tmp_path):
        # on one CPU the helper and the minibatches interleave wherever the scheduler switches;
        # the train-blackbox golden case must still write the table's bytes
        tests = pathlib.Path(__file__).resolve().parent
        from test_golden_outputs import CASES, TABLE, observe

        golden, argv = json.loads(TABLE.read_text()), dict(CASES)
        assert observe(tmp_path, "gen-data-greybox", argv["gen-data-greybox"]) == golden["gen-data-greybox"]
        cpu = min(os.sched_getaffinity(0))
        script = (f"import json, os, pathlib, sys\n"
                  f"os.sched_setaffinity(0, {{{cpu}}})\n"
                  f"sys.path[:0] = [{str(tests)!r}, {str(pathlib.Path(blackbox.__file__).parents[1])!r}]\n"
                  "from test_golden_outputs import CASES, observe\n"
                  f"result = observe(pathlib.Path({str(tmp_path)!r}), 'train-blackbox', dict(CASES)['train-blackbox'])\n"
                  "print(json.dumps([sorted(os.sched_getaffinity(0)), result]))\n")
        child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout.splitlines()[-1]) == [[cpu], golden["train-blackbox"]]


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
    def test_rejects_layers_of_another_shape(self):
        # the kernel reads the parameters by blackbox.SIZES, so no other shape may reach it
        layers = random_model(2).layers
        layers[1] = (np.zeros((4, 5)), np.zeros(4))
        with pytest.raises(ValueError, match="shapes"):
            MlpModel(layers, np.zeros(2), np.ones(2), np.zeros(2), np.ones(2))

    def test_save_load_round_trip(self, tmp_path):
        model = random_model(7)
        path = tmp_path / "model.json"
        model.save(path, meta={"note": "test"})
        back = MlpModel.load(path)
        phi = InterceptionPolicy(0.25, -0.15)
        np.testing.assert_allclose(mlp_forward(back, phi), mlp_forward(model, phi), atol=1e-15)
        np.testing.assert_allclose(mlp_jacobian(back, phi), mlp_jacobian(model, phi), atol=1e-15)

