"""Small tanh MLP surrogate of the landing-point map, trained with Adam.

Fixed architecture 2 -> 4 -> 4 -> 4 -> 4 -> 2, hyperbolic tangent on the
hidden layers, identity output. Inputs are normalized onto the feasible
policy box, outputs onto the dataset mean and spread. Gradients of the
output w.r.t. the policy come from the exact layer-by-layer chain rule.
The forward pass, the Jacobian and each training epoch run in the compiled
kernel mlp.c (kernel.load_kernel builds it with flight.c).
"""

from __future__ import annotations

import ctypes
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .arm import InterceptionPolicy
from .errors import ConfigError, DegenerateDataset
from .kernel import KERNEL, pointer
from .optimizer import FeasibleSet, csv_artifact

HIDDEN_LAYERS = (4, 4, 4, 4)
SIZES = (2, *HIDDEN_LAYERS, 2)  # every layer's width, input to output
KERNEL_SIZES, N_LAYERS = (ctypes.c_int64 * len(SIZES))(*SIZES), len(SIZES) - 1
OUTPUT_STD_FLOOR = 1e-6  # avoids a degenerate output scale on tiny datasets
PAIR, JACOBIAN = ctypes.c_double * 2, ctypes.c_double * 4
SCALINGS = ("input_center", "input_half", "output_mean", "output_std")  # the kernel's scales, in order


@dataclass
class MlpModel:
    layers: list[tuple[np.ndarray, np.ndarray]]  # [(weight (out, in), bias (out,)), ...]
    input_center: np.ndarray
    input_half: np.ndarray
    output_mean: np.ndarray
    output_std: np.ndarray
    # the kernel's parameters: each layer as a row-major (out, in + 1) block [w | b], in order;
    # layers holds views into it, and it changes only in place, so the views stay valid
    theta: np.ndarray = field(init=False, repr=False)
    # input_center, input_half, output_mean and output_std in one array, as the kernel reads
    # them; the four are views into it, and setting one writes it in place (__setattr__)
    scales: np.ndarray = field(init=False, repr=False)
    pointers: tuple = field(init=False, repr=False)  # the kernel's raw pointers to theta and scales

    def __post_init__(self) -> None:
        shapes = [((out, fan_in), (out,)) for fan_in, out in zip(SIZES[:-1], SIZES[1:])]
        if [(np.shape(w), np.shape(b)) for w, b in self.layers] != shapes:
            raise ValueError(f"layers: expected (weight, bias) shapes {shapes}")
        self.theta = np.concatenate([np.column_stack([w, b]).ravel() for w, b in self.layers], dtype=float)
        cuts = np.cumsum([out * (fan_in + 1) for fan_in, out in zip(SIZES[:-2], SIZES[1:-1])])
        blocks = [flat.reshape(out, -1) for flat, out in zip(np.split(self.theta, cuts), SIZES[1:])]
        self.layers = [(block[:, :-1], block[:, -1]) for block in blocks]
        self.scales = np.empty(2 * len(SCALINGS))
        for i, name in enumerate(SCALINGS):
            self.scales[2 * i : 2 * i + 2] = getattr(self, name)
            setattr(self, name, self.scales[2 * i : 2 * i + 2])
        self.pointers = (pointer(self.theta), pointer(self.scales))

    def __setattr__(self, name: str, value) -> None:
        if name in SCALINGS and "pointers" in self.__dict__:
            getattr(self, name)[:] = value  # in place, so the kernel's pointer stays valid
        else:
            object.__setattr__(self, name, value)

    def save(self, path, meta: dict) -> None:
        doc = {
            "meta": meta,
            "architecture": list(SIZES),
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
        layers = doc.get("layers")
        if not isinstance(layers, list) or len(layers) != len(SIZES) - 1:
            raise ConfigError(f"{path}: layers: expected a list of {len(SIZES) - 1} layers")
        return cls(
            layers=[(array(l, "weight", (m, n), f"layers[{i}].weight"), array(l, "bias", (m,), f"layers[{i}].bias"))
                    for i, (l, n, m) in enumerate(zip(layers, SIZES[:-1], SIZES[1:]))],
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


def _evaluate(model: MlpModel, phi: InterceptionPolicy, jac=None) -> np.ndarray:
    """The prediction for one policy, in the kernel (mlp.c's ttr_mlp), which also writes
    the row-major 2x2 Jacobian into `jac` when given 4 doubles."""
    out, (theta, scales) = PAIR(), model.pointers
    KERNEL.ttr_mlp(theta, KERNEL_SIZES, N_LAYERS, scales, PAIR(phi.theta1, phi.theta4), out, jac)
    return np.frombuffer(out)


def mlp_forward(model: MlpModel, phi: InterceptionPolicy) -> np.ndarray:
    """Predicted landing point for one policy."""
    return _evaluate(model, phi)


def mlp_jacobian(model: MlpModel, phi: InterceptionPolicy) -> np.ndarray:
    """Exact 2x2 derivative of the prediction w.r.t. the policy."""
    jac = JACOBIAN()
    _evaluate(model, phi, jac)
    return np.frombuffer(jac).reshape(2, 2)


def random_model(rng: np.random.Generator, k: FeasibleSet, bound) -> MlpModel:
    """Layers drawn uniform within +-bound(fan_in), inputs scaled onto the box k, outputs unscaled."""
    layers = []
    for fan_in, fan_out in zip(SIZES[:-1], SIZES[1:]):
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
    rows = np.hstack([x, y])[rng.permutation(n)]  # records [x | y]: the validation split, then the training split
    adam = np.array([cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps_adam])
    m_adam, v_adam, t_step = np.zeros_like(model.theta), np.zeros_like(model.theta), ctypes.c_int64(0)
    mse = np.empty((cfg.epochs, 2))  # each epoch's training and validation MSE
    (theta, scales), (m, v, adam, rows) = model.pointers, map(pointer, (m_adam, v_adam, adam, rows))
    for epoch in range(cfg.epochs + 1):
        # one kernel call per epoch (mlp.c's ttr_adam_epoch), its batches in the drawn order, while a helper
        # thread takes the previous epoch's errors; one more call, without batches, takes the last epoch's
        order = pointer(rng.permutation(n - n_val), np.int64) if epoch < cfg.epochs else None
        KERNEL.ttr_adam_epoch(theta, m, v, ctypes.byref(t_step), KERNEL_SIZES, N_LAYERS, scales, adam, rows, n, n_val,
                              order, cfg.batch_size, pointer(mse[epoch - 1]) if epoch else None)
    return model, {"train_mse": mse[:, 0].tolist(), "val_mse": mse[:, 1].tolist()}
