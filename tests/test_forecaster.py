"""Forecaster pipeline, metrics, training behavior and the linear baseline."""

import numpy as np
import pytest

from filmline import autodiff as ad
from filmline.autodiff import Tensor, no_grad
from filmline.cells import gru_cell, gru_scan, lstm_cell, lstm_scan
from filmline.forecaster import (
    ForecasterConfig, LstnetModel, LstnetParams, Normalizer, SeriesDataset,
    chrono_split, evaluate_forecaster, linreg_baseline, load_series, lstnet_forward,
    metrics_from_errors, save_series, train_forecaster, window_batch,
)

from conftest import MICRO_FORECASTER, TINY_FORECASTER, finite_diff_check, make_toy_series


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def test_metrics_perfect_predictions():
    m = metrics_from_errors(np.zeros(10), tolerance=1.0)
    assert (m.mae, m.rmse, m.qualification_rate) == (0.0, 0.0, 1.0)


def test_metrics_boundary_counts_as_qualified():
    m = metrics_from_errors(np.array([1.0, -1.0]), tolerance=1.0)
    assert m.mae == pytest.approx(1.0)
    assert m.rmse == pytest.approx(1.0)
    assert m.qualification_rate == 1.0


def test_metrics_hand_case():
    m = metrics_from_errors(np.array([0.0, 2.0]), tolerance=1.0)
    assert m.mae == pytest.approx(1.0)
    assert m.rmse == pytest.approx(np.sqrt(2.0))
    assert m.qualification_rate == 0.5


def test_metrics_rmse_dominates_mae():
    rng = np.random.default_rng(0)
    for _ in range(50):
        errors = rng.standard_normal(rng.integers(1, 40))
        m = metrics_from_errors(errors, tolerance=0.5)
        assert m.rmse >= m.mae - 1e-12


def test_metrics_qr_monotone_in_tolerance():
    errors = np.random.default_rng(1).standard_normal(200)
    qrs = [metrics_from_errors(errors, t).qualification_rate
           for t in (0.1, 0.5, 1.0, 2.0, 5.0)]
    assert all(a <= b for a, b in zip(qrs, qrs[1:]))


def test_metrics_reject_empty_and_bad_tolerance():
    with pytest.raises(ValueError):
        metrics_from_errors(np.array([]), 1.0)
    with pytest.raises(ValueError):
        metrics_from_errors(np.array([1.0]), 0.0)


# ----------------------------------------------------------------------
# normalization
# ----------------------------------------------------------------------

def test_normalizer_round_trip():
    rows = np.random.default_rng(2).normal(50, 4, size=(300, 3))
    norm = Normalizer.fit(rows, ["a", "b", "target"], "target")
    y = np.array([47.0, 50.0, 61.5])
    anchor = np.array([48.0, 52.0, 60.0])
    back = norm.denormalize_target(norm.normalize_target(y, anchor), anchor)
    assert np.abs(back - y).max() < 1e-12


def test_normalizer_uses_train_stats_only():
    ds = make_toy_series(n_rows=400, seed=3)
    shifted = ds.values.copy()
    shifted[280:] += 100.0  # val/test distribution shift
    ds = SeriesDataset(ds.feature_names, shifted)
    tr, _, _ = chrono_split(400)
    norm = Normalizer.fit(ds.values[tr], ds.feature_names, "target")
    assert np.allclose(norm.mean, ds.values[tr].mean(axis=0))


def test_normalizer_guards_constant_features():
    rows = np.ones((50, 2))
    norm = Normalizer.fit(rows, ["a", "target"], "target")
    assert np.all(norm.std == 1.0) and norm.delta_std == 1.0


# ----------------------------------------------------------------------
# the forward pipeline
# ----------------------------------------------------------------------

def test_zero_params_predict_anchor_plus_bias():
    cfg = TINY_FORECASTER
    rng = np.random.default_rng(4)
    params = LstnetParams.init(cfg, 4, rng)
    for t in params.tensors():
        t.data[...] = 0.0
    params.out.b.data[...] = 0.5
    ds = make_toy_series(n_rows=200, seed=5)
    tr, _, _ = chrono_split(200)
    norm = Normalizer.fit(ds.values[tr], ds.feature_names, "target")
    model = LstnetModel(cfg, params, norm)
    window = ds.values[:cfg.window]
    anchor = window[-1, norm.target_col]
    assert model.predict(window) == pytest.approx(anchor + 0.5 * norm.delta_std, abs=1e-12)


def test_eval_mode_is_bit_deterministic():
    cfg = TINY_FORECASTER
    rng = np.random.default_rng(6)
    params = LstnetParams.init(cfg, 4, rng)
    window = rng.standard_normal((1, cfg.window, 4))
    with no_grad():
        a = lstnet_forward(cfg, params, window, training=False).data
        b = lstnet_forward(cfg, params, window, training=False).data
    assert np.array_equal(a, b)


def per_step_forward(cfg, params, windows):
    """``lstnet_forward`` built step by step from ``lstm_cell``/``gru_cell``
    nodes, with the skip path's phases stacked phase-major in rows: the
    reference for the whole-sequence scans."""
    b_n = windows.shape[0]
    x = Tensor(windows)
    conv = ad.relu(ad.bias_add(ad.conv1d(x, params.conv_k), params.conv_b))
    pooled = ad.max_pool1d(conv, cfg.pool_window)
    normed = ad.layer_norm(pooled, params.ln_gain, params.ln_bias)
    length, p = cfg.pooled_length, cfg.skip_period
    h = Tensor(np.zeros((b_n, cfg.lstm_hidden)))
    c = Tensor(np.zeros((b_n, cfg.lstm_hidden)))
    for t in range(length):
        h, c = lstm_cell(ad.take_time(normed, t), h, c, params.lstm)
    n_steps = length // p
    start = length - n_steps * p
    hs = Tensor(np.zeros((b_n * p, cfg.skip_hidden)))
    for t in range(n_steps):
        step = ad.concat([ad.take_time(normed, start + j + t * p) for j in range(p)], axis=0)
        hs = gru_cell(step, hs, params.gru)
    skip = [ad.slice_(hs, j * b_n, (j + 1) * b_n, axis=0) for j in range(p)]
    fused = ad.tanh(params.fusion(ad.concat([h] + skip, axis=1)))
    return params.out(fused)


# the default config pools to 13 steps with skip period 4, so its skip path
# starts at pooled step 1; period 1 makes the skip path one plain GRU
@pytest.mark.parametrize("cfg", [MICRO_FORECASTER, ForecasterConfig(),
                                 ForecasterConfig(skip_period=1)],
                         ids=["micro", "default", "skip-period-1"])
@pytest.mark.parametrize("batch", [1, 37])
def test_lstnet_forward_matches_the_per_step_cell_graph(cfg, batch):
    rng = np.random.default_rng(batch)
    params = LstnetParams.init(cfg, 5, rng)
    for t in params.tensors():  # move the zero biases and unit gains off their init
        t.data = t.data + 0.1 * rng.standard_normal(t.shape)
    windows = rng.standard_normal((batch, cfg.window, 5))
    weights = rng.standard_normal((batch, 1))  # a loss whose gradient differs by row

    def run(forward):
        for t in params.tensors():
            t.grad = None
        out = forward(cfg, params, windows)
        ad.backward(ad.sum_(ad.mul(out, Tensor(weights))))
        return out.data, {name: t.grad for name, t in params.named().items()}

    ref_out, ref_grads = run(per_step_forward)
    out, grads = run(lstnet_forward)
    assert out.shape == (batch, 1)
    assert np.abs(out - ref_out).max() <= 1e-12
    for name, ref in ref_grads.items():
        assert np.abs(grads[name] - ref).max() <= 1e-10 * np.abs(ref).max(), name


def test_scans_record_no_node_under_no_grad():
    cfg = TINY_FORECASTER
    params = LstnetParams.init(cfg, 4, np.random.default_rng(3))
    x = Tensor(np.random.default_rng(4).standard_normal((2, 5, cfg.conv_channels)),
               requires_grad=True)
    with no_grad():
        outs = [lstm_scan(x, params.lstm), gru_scan(x, params.gru, 2)]
    assert all(o.node is None and not o.requires_grad for o in outs)
    assert [o.shape for o in outs] == [(2, cfg.lstm_hidden), (2, 2 * cfg.skip_hidden)]


def test_predict_builds_as_many_tensors_at_any_window_and_batch(monkeypatch):
    # a per-step graph would build more tensors for a longer window
    built = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    counts = set()
    ds = make_toy_series(n_rows=200, seed=9)
    norm = Normalizer.fit(ds.values[chrono_split(200)[0]], ds.feature_names, "target")
    for cfg in (ForecasterConfig(window=8, conv_kernel=3, skip_period=2), ForecasterConfig()):
        model = LstnetModel(cfg, LstnetParams.init(cfg, 4, np.random.default_rng(9)), norm)
        for batch in (1, 37):
            windows = window_batch(ds.values, np.arange(batch), cfg.window)
            monkeypatch.setattr(Tensor, "__init__", counting_init)
            model.predict(windows)
            monkeypatch.setattr(Tensor, "__init__", init)
            counts.add(len(built))
            built.clear()
    assert len(counts) == 1 and 0 < counts.pop() <= 20


def test_forward_rejects_wrong_window_length():
    cfg = TINY_FORECASTER
    params = LstnetParams.init(cfg, 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="window length"):
        lstnet_forward(cfg, params, np.zeros((1, cfg.window + 1, 4)))


@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_lane_predict_equals_per_window_predict_bit_for_bit(micro_models, k):
    # one probe window among different companions and at different lane positions
    rng = np.random.default_rng(k)
    for model in micro_models[:2]:
        norm, t = model.norm, model.cfg.window
        pool = norm.mean + norm.std * rng.standard_normal((12, t, len(norm.mean)))
        probe, alone = pool[0], model.predict(pool[0])
        for position in sorted({0, k // 2, k - 1}):
            companions = pool[1:][rng.permutation(11)[:k - 1]]
            lanes = np.insert(companions, position, probe, axis=0)[:, None]
            out = model.predict(lanes)
            assert out.shape == (k, 1)
            assert out[position, 0] == alone
            assert np.array_equal(out[:, 0], [model.predict(w) for w in lanes[:, 0]])


def test_lane_input_under_grad_recording_is_refused_by_name(micro_models):
    model = micro_models[0]
    lanes = np.zeros((2, 1, model.cfg.window, len(model.norm.mean)))
    with pytest.raises(ValueError, match="conv1d: lane input .* no_grad"):
        lstnet_forward(model.cfg, model.params, lanes)
    with no_grad():
        assert lstnet_forward(model.cfg, model.params, lanes).shape == (2, 1, 1)


def test_lstnet_gradients_match_finite_differences():
    cfg = ForecasterConfig(window=8, conv_kernel=3, conv_channels=4, pool_window=2,
                           lstm_hidden=4, skip_hidden=3, skip_period=2, dropout=0.0,
                           fusion_hidden=4)
    rng = np.random.default_rng(7)
    params = LstnetParams.init(cfg, 3, rng)
    windows = rng.standard_normal((2, 8, 3))

    def loss():
        return ad.mean_(ad.square(lstnet_forward(cfg, params, windows)))

    assert finite_diff_check(loss, params.tensors()) < 1e-4


def test_skip_path_with_period_one_equals_plain_gru():
    # transplant the trained weights into a plain GRU over the pooled sequence
    cfg = ForecasterConfig(window=10, conv_kernel=3, conv_channels=4, pool_window=2,
                           lstm_hidden=4, skip_hidden=3, skip_period=1, dropout=0.0,
                           fusion_hidden=4)
    rng = np.random.default_rng(8)
    params = LstnetParams.init(cfg, 3, rng)
    windows = rng.standard_normal((3, 10, 3))

    with no_grad():
        reference = lstnet_forward(cfg, params, windows).data

        # replicate the pipeline, replacing the skip section with an ordinary GRU
        x = Tensor(windows)
        conv = ad.relu(ad.bias_add(ad.conv1d(x, params.conv_k), params.conv_b))
        pooled = ad.max_pool1d(conv, cfg.pool_window)
        normed = ad.layer_norm(pooled, params.ln_gain, params.ln_bias)
        h = Tensor(np.zeros((3, cfg.lstm_hidden)))
        c = Tensor(np.zeros((3, cfg.lstm_hidden)))
        for t in range(cfg.pooled_length):
            h, c = lstm_cell(ad.take_time(normed, t), h, c, params.lstm)
        hg = Tensor(np.zeros((3, cfg.skip_hidden)))
        for t in range(cfg.pooled_length):
            hg = gru_cell(ad.take_time(normed, t), hg, params.gru)
        merged = ad.concat([h, hg], axis=1)
        fused = ad.tanh(params.fusion(merged))
        plain = params.out(fused).data

    assert np.abs(reference - plain).max() < 1e-12


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------

def test_training_fits_constant_target_quickly():
    ds = make_toy_series(n_rows=500, seed=9, target_kind="constant")
    cfg = ForecasterConfig(window=12, conv_kernel=3, conv_channels=6, pool_window=2,
                           lstm_hidden=8, skip_hidden=4, skip_period=2, dropout=0.0,
                           fusion_hidden=8, lr=3e-3, batch_size=128, epochs=10)
    model, trace = train_forecaster(cfg, ds, "target", seed=0)
    m = evaluate_forecaster(model, ds, tolerance=0.1)
    assert m.mae < 0.05  # a 7.5 mm constant target is fit to well under 1%
    assert all(np.isfinite(t["train_mae_norm"]) for t in trace)
    assert all(np.isfinite(t["val_mae_mm"]) for t in trace)


def test_training_refuses_a_split_without_a_full_window():
    # 40 rows split 28/6/6, and one window of 8 needs 9 rows
    cfg = ForecasterConfig(window=8, conv_kernel=3, skip_period=2, epochs=1)
    ds = make_toy_series(n_rows=40, seed=16)
    with pytest.raises(ValueError, match="val split holds 6 of 40 rows; a window of 8 needs 9"):
        train_forecaster(cfg, ds, "target")


def test_training_rejects_empty_dataset():
    empty = SeriesDataset(["a", "target"], np.zeros((0, 2)))
    with pytest.raises(ValueError):
        train_forecaster(TINY_FORECASTER, empty, "target")


def test_training_returns_best_validation_params():
    ds = make_toy_series(n_rows=500, seed=10)
    cfg = ForecasterConfig(window=12, conv_kernel=3, conv_channels=4, pool_window=2,
                           lstm_hidden=6, skip_hidden=3, skip_period=2, dropout=0.0,
                           fusion_hidden=6, lr=3e-3, batch_size=128, epochs=6)
    model, trace = train_forecaster(cfg, ds, "target", seed=1)
    best = min(t["val_mae_mm"] for t in trace)
    # re-evaluating the returned parameters reproduces the best epoch's val MAE
    m = evaluate_forecaster(model, ds, tolerance=1.0, split="val")
    assert m.mae == pytest.approx(best, abs=1e-9)


def test_model_save_load_roundtrip(tmp_path, micro_models):
    width, _, _ = micro_models
    path = tmp_path / "width.npz"
    width.save(path)
    with np.load(path) as data:  # the layout README describes, in this order
        assert data.files == [f"param:{k}" for k in (
            "conv_k", "conv_b", "ln_gain", "ln_bias", "lstm.wx", "lstm.wh", "lstm.b",
            "gru.wx", "gru.wh", "gru.b", "gru.w_hn", "gru.b_n",
            "fusion.w", "fusion.b", "out.w", "out.b")] + ["norm_mean", "norm_std", "meta"]
    loaded = LstnetModel.load(path, width.cfg)
    window = np.random.default_rng(11).normal(400, 5,
                                              size=(width.cfg.window,
                                                    len(width.norm.feature_names)))
    assert loaded.predict(window) == pytest.approx(width.predict(window), abs=1e-12)


def test_per_gate_forecaster_file_is_refused(tmp_path, micro_models):
    # the layout forecaster files had before the gate weights were stored stacked
    width, _, _ = micro_models
    path = tmp_path / "per_gate.npz"
    width.save(path)
    with np.load(path) as data:
        entries = {k: data[k] for k in data.files}
    for cell, hid, gates in (("lstm", width.cfg.lstm_hidden, "ifgo"),
                             ("gru", width.cfg.skip_hidden, "zr")):
        wx, wh, b = (entries.pop(f"param:{cell}.{k}") for k in ("wx", "wh", "b"))
        for k, gate in enumerate(gates):
            cols = slice(k * hid, (k + 1) * hid)
            entries[f"param:{cell}.w_x{gate}"] = wx[:, cols]
            entries[f"param:{cell}.w_h{gate}"] = wh[:, cols]
            entries[f"param:{cell}.b_{gate}"] = b[cols]
        if cell == "gru":
            entries["param:gru.w_xn"] = wx[:, 2 * hid:]
    np.savez(path, **entries)
    with pytest.raises(ValueError, match=r"per_gate\.npz.*param:lstm\.wx"):
        LstnetModel.load(path, width.cfg)


# ----------------------------------------------------------------------
# dataset files
# ----------------------------------------------------------------------

def test_series_csv_roundtrip(tmp_path):
    ds = make_toy_series(n_rows=40, seed=12)
    path = tmp_path / "series.csv"
    save_series(path, ds)
    loaded = load_series(path)
    assert loaded.feature_names == ds.feature_names
    assert np.array_equal(loaded.values, ds.values)


# ----------------------------------------------------------------------
# linear baseline
# ----------------------------------------------------------------------

def test_linreg_recovers_exactly_linear_target():
    ds = make_toy_series(n_rows=800, seed=13, target_kind="lagged-linear")
    _, metrics = linreg_baseline(ds, "target", window=12)
    assert metrics.mae < 1e-6  # the model class contains the truth


def test_linreg_ridge_is_gentle_on_well_conditioned_data():
    ds = make_toy_series(n_rows=800, seed=14, target_kind="lagged-linear")
    c1, _ = linreg_baseline(ds, "target", window=12, ridge=1e-6)
    c2, _ = linreg_baseline(ds, "target", window=12, ridge=0.0)
    assert np.abs(c1 - c2).max() < 1e-3


def test_linreg_handles_duplicate_features():
    ds = make_toy_series(n_rows=400, seed=15)
    dup = SeriesDataset(ds.feature_names[:-1] + ["dup", "target"],
                        np.concatenate([ds.values[:, :-1], ds.values[:, :1],
                                        ds.values[:, -1:]], axis=1))
    _, metrics = linreg_baseline(dup, "target", window=12)
    assert np.isfinite(metrics.mae)
