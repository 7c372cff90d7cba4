"""Process-parameter forecaster: conv -> pool -> LSTM alongside a skip-GRU.

One model predicts the next reading of a single target column (film width or
thickness, in mm) from a fixed-length multivariate history window. The skip
path runs one shared GRU over every p-th pooled step, one subsequence per
phase offset, and concatenates the final hidden states; with p = 1 it
degenerates to an ordinary GRU over the pooled sequence.

``lstnet_forward`` is the one forward: training records its graph, inference
and validation run it under ``no_grad``. Each recurrent path is one node
over the whole sequence (``cells.lstm_scan``, ``cells.gru_scan``).

Also provides the training loop (Adam on MAE), evaluation metrics and an
ordinary-least-squares baseline on the last-step feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .autodiff import Tensor, bias_add, concat, conv1d, dropout, layer_norm, max_pool1d, relu
from . import autodiff as ad
# gru_cell/lstm_cell go unused here; perfbench/layers.py wraps them (--trace 1 fails without)
from .cells import GruParams, LstmParams, gru_cell, gru_scan, lstm_cell, lstm_scan  # noqa: F401
from .nets import Dense, config_fingerprint, load_checkpoint, save_checkpoint
from .optim import Adam


@dataclass
class ForecasterConfig:
    window: int = 32
    conv_kernel: int = 6
    conv_channels: int = 32
    pool_window: int = 2
    lstm_hidden: int = 64
    skip_hidden: int = 16
    skip_period: int = 4
    dropout: float = 0.1
    fusion_hidden: int = 32
    lr: float = 1e-3
    batch_size: int = 1024
    epochs: int = 100

    def __post_init__(self):
        if self.window < self.conv_kernel:
            raise ValueError("forecaster: window must be >= conv_kernel")
        if self.lr <= 0:
            raise ValueError("forecaster: lr must be > 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("forecaster: dropout must be in [0, 1)")
        # a 0-wide layer passes nothing on; pool_window divides in pooled_length
        for name in ("conv_kernel", "conv_channels", "pool_window", "lstm_hidden",
                     "skip_hidden", "skip_period", "fusion_hidden", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"forecaster: {name} must be >= 1")
        if self.skip_period >= self.pooled_length:
            raise ValueError(
                f"forecaster: skip_period {self.skip_period} must be smaller than the "
                f"pooled sequence length {self.pooled_length}")

    @property
    def pooled_length(self) -> int:
        conv_out = self.window - self.conv_kernel + 1
        return conv_out // self.pool_window


@dataclass
class Normalizer:
    """Per-feature z-scores plus the anchored target scale, fitted on train rows.

    The network predicts the z-scored one-step *change* of the target; raw-mm
    predictions are recovered by anchoring at the window's most recent target
    reading. The anchor makes the output scale-equivariant, which the
    conv/pool/recurrent stack is not on its own.
    """

    feature_names: list[str]
    mean: np.ndarray
    std: np.ndarray
    target_col: int
    delta_std: float

    @classmethod
    def fit(cls, rows: np.ndarray, feature_names: list[str], target_name: str) -> "Normalizer":
        if target_name not in feature_names:
            raise ValueError(f"target column {target_name!r} not in {feature_names}")
        std = rows.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        tcol = feature_names.index(target_name)
        dstd = float(np.diff(rows[:, tcol]).std()) if len(rows) > 1 else 1.0
        if dstd < 1e-12:
            dstd = 1.0
        return cls(list(feature_names), rows.mean(axis=0), std, tcol, dstd)

    def transform(self, rows: np.ndarray) -> np.ndarray:
        return (rows - self.mean) / self.std

    def normalize_target(self, y: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        return (y - anchor) / self.delta_std

    def denormalize_target(self, y: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        return anchor + y * self.delta_std


@dataclass
class ForecastMetrics:
    mae: float
    rmse: float
    qualification_rate: float


def metrics_from_errors(errors: np.ndarray, tolerance: float) -> ForecastMetrics:
    """MAE / RMSE / fraction of |error| within tolerance (boundary qualifies)."""
    if tolerance <= 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("cannot compute metrics on an empty error set")
    absolute = np.abs(errors)
    return ForecastMetrics(
        mae=float(absolute.mean()),
        rmse=float(np.sqrt(np.mean(errors * errors))),
        qualification_rate=float(np.mean(absolute <= tolerance)),
    )


@dataclass
class LstnetParams:
    conv_k: Tensor
    conv_b: Tensor
    ln_gain: Tensor
    ln_bias: Tensor
    lstm: LstmParams
    gru: GruParams
    fusion: Dense
    out: Dense

    @classmethod
    def init(cls, cfg: ForecasterConfig, n_features: int, rng: np.random.Generator):
        c = cfg.conv_channels
        scale = 1.0 / np.sqrt(cfg.conv_kernel * n_features)
        fused_in = cfg.lstm_hidden + cfg.skip_period * cfg.skip_hidden
        return cls(
            conv_k=Tensor(rng.standard_normal((cfg.conv_kernel, n_features, c)) * scale,
                          requires_grad=True),
            conv_b=Tensor(np.zeros(c), requires_grad=True),
            ln_gain=Tensor(np.ones(c), requires_grad=True),
            ln_bias=Tensor(np.zeros(c), requires_grad=True),
            lstm=LstmParams.init(c, cfg.lstm_hidden, rng),
            gru=GruParams.init(c, cfg.skip_hidden, rng),
            fusion=Dense(fused_in, cfg.fusion_hidden, rng),
            out=Dense(cfg.fusion_hidden, 1, rng),
        )

    def tensors(self) -> list[Tensor]:
        return list(self.named().values())

    def named(self) -> dict[str, Tensor]:
        named = {"conv_k": self.conv_k, "conv_b": self.conv_b,
                 "ln_gain": self.ln_gain, "ln_bias": self.ln_bias}
        for prefix, cell in (("lstm", self.lstm), ("gru", self.gru)):
            for f in fields(cell):
                named[f"{prefix}.{f.name}"] = getattr(cell, f.name)
        return {**named, **self.fusion.named("fusion"), **self.out.named("out")}

    def snapshot(self) -> list[np.ndarray]:
        return [t.data.copy() for t in self.tensors()]

    def restore(self, snap: list[np.ndarray]):
        """Write a snapshot back in place, keeping each array's memory order."""
        for t, arr in zip(self.tensors(), snap):
            t.data[...] = arr


def lstnet_forward(cfg: ForecasterConfig, params: LstnetParams, windows: np.ndarray,
                   training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Normalized next-step prediction [..., B, 1] for a [..., B, T, F] window
    batch; leading lane axes run under ``no_grad`` only."""
    windows = np.asarray(windows, dtype=np.float64)
    t_n = windows.shape[-2]
    if t_n != cfg.window:
        raise ValueError(f"forecaster: window length {t_n} != configured {cfg.window}")
    if training and cfg.dropout > 0 and rng is None:
        raise ValueError("forecaster: training with dropout needs an rng")

    x = Tensor(windows)
    conv = relu(bias_add(conv1d(x, params.conv_k), params.conv_b))
    pooled = max_pool1d(conv, cfg.pool_window)
    normed = layer_norm(pooled, params.ln_gain, params.ln_bias)
    merged = concat([lstm_scan(normed, params.lstm),
                     gru_scan(normed, params.gru, cfg.skip_period)], axis=1)
    merged = dropout(merged, cfg.dropout, rng, training)
    fused = ad.tanh(params.fusion(merged))
    return params.out(fused)


class LstnetModel:
    """Trained forecaster bundle: config, parameters and normalization."""

    def __init__(self, cfg: ForecasterConfig, params: LstnetParams, norm: Normalizer):
        self.cfg = cfg
        self.params = params
        self.norm = norm

    def predict(self, raw_windows: np.ndarray) -> np.ndarray:
        """De-normalized (mm) predictions; deterministic (dropout disabled).

        A [T, F] window gives a float, a [B, T, F] batch [B] and K lanes of
        batches, [K, B, T, F], give [K, B], each lane bit-equal to its own call.
        """
        raw_windows = np.asarray(raw_windows, dtype=np.float64)
        squeeze = raw_windows.ndim == 2
        if squeeze:
            raw_windows = raw_windows[None]
        with ad.no_grad():
            out = lstnet_forward(self.cfg, self.params, self.norm.transform(raw_windows)).data
        anchor = raw_windows[..., -1, self.norm.target_col]
        pred = self.norm.denormalize_target(out[..., 0], anchor)
        return float(pred[0]) if squeeze else pred

    def fingerprint(self) -> str:
        desc = {"cfg": vars(self.cfg), "features": self.norm.feature_names,
                "target": self.norm.target_col}
        return config_fingerprint(desc)

    def save(self, path):
        meta = {"cfg": vars(self.cfg), "features": self.norm.feature_names,
                "target_col": self.norm.target_col, "delta_std": self.norm.delta_std,
                "fingerprint": self.fingerprint()}
        save_checkpoint(path, self.params.named(), meta,
                        norm_mean=self.norm.mean, norm_std=self.norm.std)

    @classmethod
    def load(cls, path, cfg: ForecasterConfig) -> "LstnetModel":
        """Reload a model saved under ``cfg``; one saved under any other
        configuration is refused with a ``ValueError`` naming the file."""
        ckpt = load_checkpoint(path)
        meta = ckpt.meta
        norm = Normalizer(meta["features"], ckpt.arrays["norm_mean"], ckpt.arrays["norm_std"],
                          meta["target_col"], meta["delta_std"])
        params = LstnetParams.init(cfg, len(norm.feature_names), np.random.default_rng(0))
        model = cls(cfg, params, norm)
        ckpt.restore(params.named(), model.fingerprint())
        return model


# ----------------------------------------------------------------------
# dataset plumbing
# ----------------------------------------------------------------------

@dataclass
class SeriesDataset:
    """Chronological multivariate readings, one row per time step."""

    feature_names: list[str]
    values: np.ndarray  # [N, F]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.feature_names):
            raise ValueError("series shape does not match the feature names")


def save_series(path, dataset: SeriesDataset):
    header = ",".join(dataset.feature_names)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in dataset.values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_series(path) -> SeriesDataset:
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    return SeriesDataset(names, values)


def chrono_split(n_rows: int, train_frac: float = 0.7, val_frac: float = 0.15):
    """Chronological (train, val, test) row slices."""
    n_train = int(n_rows * train_frac)
    n_val = int(n_rows * val_frac)
    return slice(0, n_train), slice(n_train, n_train + n_val), slice(n_train + n_val, n_rows)


def window_batch(z_rows: np.ndarray, starts: np.ndarray, window: int) -> np.ndarray:
    """Gather [len(starts), window, F] windows beginning at the given rows."""
    return z_rows[starts[:, None] + np.arange(window)]


def _window_starts(n_rows: int, window: int, split: str) -> np.ndarray:
    """First rows of the full windows inside one chronological split; each
    window's target row, start + window, stays inside the split too."""
    sl = dict(zip(("train", "val", "test"), chrono_split(n_rows)))[split]
    if sl.stop - sl.start <= window:
        raise ValueError(f"forecaster: the {split} split holds {sl.stop - sl.start} of {n_rows} "
                         f"rows; a window of {window} needs {window + 1}")
    return np.arange(sl.start, sl.stop - window)


def _split_windows(dataset: SeriesDataset, target_name: str, window: int):
    """Normalize with train-only stats and index windows inside each split."""
    n = dataset.values.shape[0]
    splits = {name: _window_starts(n, window, name) for name in ("train", "val", "test")}
    norm = Normalizer.fit(dataset.values[chrono_split(n)[0]], dataset.feature_names, target_name)
    return norm, norm.transform(dataset.values), splits


def train_forecaster(cfg: ForecasterConfig, dataset: SeriesDataset, target_name: str,
                     seed: int = 0, verbose: bool = False):
    """Train on MAE with Adam; returns (model, per-epoch trace).

    The returned model carries the parameters with the best validation MAE.
    """
    rng = np.random.default_rng(seed)
    norm, z, splits = _split_windows(dataset, target_name, cfg.window)
    tcol = norm.target_col
    raw = dataset.values
    params = LstnetParams.init(cfg, len(dataset.feature_names), rng)
    opt = Adam(params.tensors(), lr=cfg.lr)
    model = LstnetModel(cfg, params, norm)
    trace = []
    best_val = np.inf
    best_snap = params.snapshot()
    train_starts = splits["train"].copy()
    for epoch in range(cfg.epochs):
        rng.shuffle(train_starts)
        losses = []
        for lo in range(0, len(train_starts), cfg.batch_size):
            idx = train_starts[lo:lo + cfg.batch_size]
            xb = window_batch(z, idx, cfg.window)
            anchor = raw[idx + cfg.window - 1, tcol]
            yb = norm.normalize_target(raw[idx + cfg.window, tcol], anchor)[:, None]
            out = lstnet_forward(cfg, params, xb, training=True, rng=rng)
            loss = ad.mean_(ad.abs_(ad.sub(out, Tensor(yb))))
            if not np.isfinite(loss.data):
                raise RuntimeError(f"non-finite training loss at epoch {epoch}")
            ad.backward(loss)
            opt.step()
            losses.append(float(loss.data))
        val_mae = evaluate_forecaster(model, dataset, tolerance=1.0, split="val").mae
        trace.append({"epoch": epoch, "train_mae_norm": float(np.mean(losses)),
                      "val_mae_mm": val_mae})
        if verbose:
            print(f"epoch {epoch:3d}  train {np.mean(losses):.4f}  val {val_mae:.4f} mm")
        if val_mae < best_val:
            best_val = val_mae
            best_snap = params.snapshot()
    params.restore(best_snap)
    for t in params.tensors():  # a trained model carries no gradient arrays
        t.grad = None
    return model, trace


def evaluate_forecaster(model: LstnetModel, dataset: SeriesDataset,
                        tolerance: float, split: str = "test") -> ForecastMetrics:
    """Metrics on one chronological split of a dataset (default: test)."""
    cfg = model.cfg
    starts = _window_starts(dataset.values.shape[0], cfg.window, split)
    preds = []
    for lo in range(0, len(starts), cfg.batch_size):
        idx = starts[lo:lo + cfg.batch_size]
        preds.append(np.atleast_1d(model.predict(window_batch(dataset.values, idx, cfg.window))))
    pred = np.concatenate(preds)
    true = dataset.values[starts + cfg.window, model.norm.target_col]
    return metrics_from_errors(pred - true, tolerance)


# ----------------------------------------------------------------------
# linear-regression baseline
# ----------------------------------------------------------------------

def linreg_baseline(dataset: SeriesDataset, target_name: str, window: int = 32,
                    tolerance: float = 1.0, ridge: float = 1e-6):
    """Least squares on the last-step features of each window; returns
    (coefficients, test metrics), the intercept last among the coefficients.

    Regresses the raw next-step target (mm) on z-scored features plus an
    intercept, so the reading column provides its own anchor.
    """
    norm, z, splits = _split_windows(dataset, target_name, window)
    tcol = norm.target_col

    def features(starts):
        return np.concatenate([z[starts + window - 1], np.ones((len(starts), 1))], axis=1)

    x = features(splits["train"])
    y = dataset.values[splits["train"] + window, tcol]
    gram = x.T @ x + ridge * np.eye(x.shape[1])
    coef = np.linalg.solve(gram, x.T @ y)

    test = splits["test"]
    pred = features(test) @ coef
    true = dataset.values[test + window, tcol]
    return coef, metrics_from_errors(pred - true, tolerance)
