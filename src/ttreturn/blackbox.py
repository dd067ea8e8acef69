"""Small tanh MLP surrogate of the landing-point map, trained with Adam.

Fixed architecture 2 -> 4 -> 4 -> 4 -> 4 -> 2, hyperbolic tangent on the
hidden layers, identity output. Inputs are normalized onto the feasible
policy box, outputs onto the dataset mean and spread. Gradients of the
output w.r.t. the policy come from the exact layer-by-layer chain rule.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .arm import InterceptionPolicy
from .errors import ConfigError, DegenerateDataset
from .optimizer import FeasibleSet, csv_artifact

HIDDEN_LAYERS = (4, 4, 4, 4)
OUTPUT_STD_FLOOR = 1e-6  # avoids a degenerate output scale on tiny datasets


@dataclass
class MlpModel:
    layers: list[tuple[np.ndarray, np.ndarray]]  # [(weight (out, in), bias (out,)), ...]
    input_center: np.ndarray
    input_half: np.ndarray
    output_mean: np.ndarray
    output_std: np.ndarray

    def save(self, path, meta: dict) -> None:
        doc = {
            "meta": meta,
            "architecture": [2, *HIDDEN_LAYERS, 2],
            "activation": "tanh",
            "layers": [{"weight": w.tolist(), "bias": b.tolist()} for w, b in self.layers],
            "input_center": self.input_center.tolist(),
            "input_half": self.input_half.tolist(),
            "output_mean": self.output_mean.tolist(),
            "output_std": self.output_std.tolist(),
        }
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", newline="\n") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "MlpModel":
        """Read a saved model; ConfigError naming the field when the file does not
        hold this architecture's finite weights and scalings."""
        with open(path) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")

        def array(owner, key: str, shape: tuple, name: str) -> np.ndarray:
            try:
                value = np.array(owner[key], dtype=float)
            except (KeyError, TypeError, ValueError):
                value = None
            if value is None or value.shape != shape or not np.isfinite(value).all():
                raise ConfigError(f"{path}: {name}: expected {' x '.join(map(str, shape))} finite numbers")
            return value

        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        sizes = [2, *HIDDEN_LAYERS, 2]
        layers = doc.get("layers")
        if not isinstance(layers, list) or len(layers) != len(sizes) - 1:
            raise ConfigError(f"{path}: layers: expected a list of {len(sizes) - 1} layers")
        return cls(
            layers=[(array(l, "weight", (m, n), f"layers[{i}].weight"), array(l, "bias", (m,), f"layers[{i}].bias"))
                    for i, (l, n, m) in enumerate(zip(layers, sizes[:-1], sizes[1:]))],
            **{key: array(doc, key, (2,), key) for key in ("input_center", "input_half", "output_mean", "output_std")},
        )


@dataclass
class Dataset:
    """Pairs of policy and observed landing point."""

    records: list[tuple[InterceptionPolicy, np.ndarray]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        x = np.array([[phi.theta1, phi.theta4] for phi, _ in self.records])
        y = np.array([landing for _, landing in self.records], dtype=float)
        return x, y

    def save_csv(self, path, comments: tuple[str, ...]) -> None:
        csv_artifact(path, comments, "theta1,theta4,land_x,land_y",
                     ((phi.theta1, phi.theta4, *landing.tolist()) for phi, landing in self.records))

    @classmethod
    def load_csv(cls, path) -> "Dataset":
        ds = cls()
        with open(path) as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line or line.startswith("theta1") or line.startswith("#"):
                    continue
                values = line.split(",")
                try:
                    t1, t4, lx, ly = map(float, values)
                except ValueError:
                    raise ConfigError(f"{path}: line {lineno}: expected 4 numbers, got "
                                      + (f"{len(values)}" if len(values) != 4 else repr(line)))
                ds.records.append((InterceptionPolicy(t1, t4), np.array([lx, ly])))
        return ds


@dataclass
class TrainConfig:
    """The training run's epochs and seed; Adam's settings, the batch size and the
    validation share are class constants."""

    epochs: int
    seed: int = 0

    learning_rate = 1e-3
    beta1 = 0.9
    beta2 = 0.999
    eps_adam = 1e-8
    batch_size = 64
    validation_fraction = 0.1


def _forward_batch(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Normalized forward pass; returns output and hidden activations."""
    a = (x - model.input_center) / model.input_half
    activations = []
    for w, b in model.layers[:-1]:
        a = np.tanh(a @ w.T + b)
        activations.append(a)
    w, b = model.layers[-1]
    return a @ w.T + b, activations


def mlp_forward(model: MlpModel, phi: InterceptionPolicy) -> np.ndarray:
    """Predicted landing point for one policy."""
    out, _ = _forward_batch(model, np.array([[phi.theta1, phi.theta4]]))
    return out[0] * model.output_std + model.output_mean


def mlp_jacobian(model: MlpModel, phi: InterceptionPolicy) -> np.ndarray:
    """Exact 2x2 derivative of the prediction w.r.t. the policy."""
    _, activations = _forward_batch(model, np.array([[phi.theta1, phi.theta4]]))
    jac = np.diag(1.0 / model.input_half)
    for (w, _), a in zip(model.layers[:-1], activations):
        jac = (1.0 - a[0] ** 2)[:, None] * (w @ jac)
    w_out, _ = model.layers[-1]
    jac = w_out @ jac
    return model.output_std[:, None] * jac


def random_model(rng: np.random.Generator, k: FeasibleSet, bound) -> MlpModel:
    """Layers drawn uniform within +-bound(fan_in), inputs scaled onto the box k, outputs unscaled."""
    sizes = [2, *HIDDEN_LAYERS, 2]
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        b = bound(fan_in)
        layers.append((rng.uniform(-b, b, size=(fan_out, fan_in)), rng.uniform(-b, b, size=fan_out)))
    lo = np.array([k.theta1_bounds[0], k.theta4_bounds[0]])
    hi = np.array([k.theta1_bounds[1], k.theta4_bounds[1]])
    return MlpModel(layers, (lo + hi) / 2.0, (hi - lo) / 2.0, np.zeros(2), np.ones(2))


def train(dataset: Dataset, cfg: TrainConfig, k: FeasibleSet) -> tuple[MlpModel, dict]:
    """Train the surrogate on landing-point data with Adam, its inputs normalized onto the box k.

    Deterministic given cfg.seed (init, split and shuffle order all derive
    from it). Returns the model and per-epoch train/validation MSE [m^2].
    """
    if len(dataset) < 1:
        raise ValueError("dataset is empty")
    x, y = dataset.arrays()
    finite = np.isfinite(np.hstack([x, y])).all(axis=1)
    if not finite.all():
        i = int(finite.argmin())
        raise DegenerateDataset(f"dataset record {i + 1} is not finite: {x[i]} -> {y[i]}")
    if len(dataset) >= 2 and np.allclose(x, x[0]):
        raise DegenerateDataset("all policies in the dataset are identical")

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    model = random_model(rng, k, lambda fan_in: 1.0 / np.sqrt(fan_in))
    model.output_mean = y.mean(axis=0)
    model.output_std = np.maximum(y.std(axis=0), OUTPUT_STD_FLOOR)

    n = len(dataset)
    n_val = int(round(cfg.validation_fraction * n)) if n >= 10 else 0
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    x_tr, y_tr = x[train_idx], y[train_idx]
    x_val, y_val = x[val_idx], y[val_idx]
    # a trailing ones column carries each bias through the products below
    a_tr, a_val = (np.column_stack([(xs - model.input_center) / model.input_half, np.ones(len(xs))])
                   for xs in (x_tr, x_val))
    y_tr_n = (y_tr - model.output_mean) / model.output_std

    # each layer is one row-major (out, in + 1) block [w | b] of the flat theta;
    # model.layers holds its views (w, b); theta changes only in place, so every view stays valid
    theta = np.concatenate([np.column_stack([w, b]).ravel() for w, b in model.layers])
    cuts = np.cumsum([b.size * (w.shape[1] + 1) for w, b in model.layers])[:-1]
    grad = np.zeros_like(theta)
    blocks, g_blocks = ([p.reshape(len(b), -1) for p, (_, b) in zip(np.split(flat, cuts), model.layers)]
                        for flat in (theta, grad))
    model.layers = [(block[:, :-1], block[:, -1]) for block in blocks]
    blocks_t, weights = [block.T for block in blocks], [w for w, _ in model.layers]
    m_adam = np.zeros_like(theta)
    v_adam = np.zeros_like(theta)
    t_step = 0

    def real_mse(a: np.ndarray, h: np.ndarray, ys: np.ndarray) -> float:
        # the batches' products on inputs a with their ones column; h is a ones buffer of a's rows
        for block_t in blocks_t[:-1]:
            np.tanh(np.dot(a, block_t), out=h[:, :-1])
            a = h
        err = np.square(np.dot(a, blocks_t[-1]) * model.output_std + model.output_mean - ys)
        return float(np.mean(err[:, 0] + err[:, 1]))

    history: dict = {"train_mse": [], "val_mse": []}
    n_tr = len(x_tr)
    (width,) = set(HIDDEN_LAYERS)  # one array holds every hidden layer, so the widths must be equal
    h_mse = np.ones((n_tr, width + 1))  # the epoch MSE's hidden buffer; n_val < n_tr
    # per batch size, one buffer holds the hidden activations with their ones column over their
    # tanh derivatives, layer-major so that each layer stays a contiguous BLAS operand; and its views
    hidden = {nb: (buf, [(h, h[:, :-1]) for h in buf[0]], [d[:, :-1] for d in buf[1]])
              for nb in {min(cfg.batch_size, n_tr), n_tr % cfg.batch_size or cfg.batch_size}
              for buf in [np.ones((2, len(HIDDEN_LAYERS), nb, width + 1))]}
    for _ in range(cfg.epochs):
        order = rng.permutation(n_tr)
        a_ep, y_ep = a_tr[order], y_tr_n[order]
        for start in range(0, n_tr, cfg.batch_size):
            a = a_ep[start : start + cfg.batch_size]
            yb = y_ep[start : start + cfg.batch_size]
            (whole, deriv), hid, d_tanh = hidden[len(a)]

            # forward with caches; the bias is each BLAS sum's last term, which
            # rounds like the separate + b; np.dot dispatches less than @
            acts = [a]
            for block_t, (h, t) in zip(blocks_t, hid):
                np.tanh(np.dot(acts[-1], block_t), out=t)
                acts.append(h)
            out = np.dot(acts[-1], blocks_t[-1])
            np.subtract(1.0, np.square(whole, out=deriv), out=deriv)

            # backward: mean over the batch of the squared error sum; the ones
            # column makes each block's gradient [delta.T @ acts | delta.sum]
            delta = 2.0 * (out - yb) / len(yb)
            for li in range(len(blocks) - 1, -1, -1):
                np.dot(delta.T, acts[li], out=g_blocks[li])
                if li > 0:
                    delta = np.dot(delta, weights[li]) * d_tanh[li - 1]

            t_step += 1
            corr1 = 1.0 - cfg.beta1**t_step
            corr2 = 1.0 - cfg.beta2**t_step
            m_adam = cfg.beta1 * m_adam + (1.0 - cfg.beta1) * grad
            v_adam = cfg.beta2 * v_adam + (1.0 - cfg.beta2) * grad**2
            theta -= cfg.learning_rate * (m_adam / corr1) / (
                np.sqrt(v_adam / corr2) + cfg.eps_adam
            )

        history["train_mse"].append(real_mse(a_tr, h_mse, y_tr))
        history["val_mse"].append(real_mse(a_val, h_mse[:n_val], y_val) if n_val > 0 else float("nan"))

    return model, history
