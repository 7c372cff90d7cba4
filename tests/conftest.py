"""Shared fixtures and the finite-difference gradient oracle."""

import numpy as np
import pytest

from filmline import autodiff as ad
from filmline.forecaster import ForecasterConfig, SeriesDataset, train_forecaster
from filmline.plant import PlantParams, generate_dataset


def pytest_addoption(parser):
    parser.addoption("--run-acceptance", action="store_true", default=False,
                     help="run the full-scale acceptance criteria (slow)")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance: full-scale acceptance criterion (needs --run-acceptance)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-acceptance"):
        return
    skip = pytest.mark.skip(reason="full-scale acceptance: pass --run-acceptance")
    for item in items:
        if "acceptance" in item.keywords:
            item.add_marker(skip)


def finite_diff_check(f, params, h=1e-5, floor=1e-6):
    """Max element-wise relative error between backprop and central differences.

    ``f`` rebuilds and returns the scalar loss Tensor from current parameter
    values. The floor keeps noise on near-zero gradient components from
    dominating the relative error.
    """
    # zeroed in place: a packed parameter's grad is a view of its flat leaf's
    for p in params:
        if p.grad is not None:
            p.grad[...] = 0.0
    loss = f()
    ad.backward(loss)
    worst = 0.0
    for p in params:
        analytic = p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
        numeric = np.zeros_like(p.data)
        for idx in np.ndindex(p.data.shape):
            p.data[idx] += h
            up = f().item()
            p.data[idx] -= 2 * h
            dn = f().item()
            p.data[idx] += h
            numeric[idx] = (up - dn) / (2 * h)
        rel = np.abs(analytic - numeric) / (np.maximum(np.abs(analytic), np.abs(numeric))
                                            + floor)
        worst = max(worst, float(rel.max()))
    return worst


def make_toy_series(n_rows=600, n_features=4, seed=0, target_kind="linear"):
    """Small synthetic multivariate series for forecaster unit tests."""
    rng = np.random.default_rng(seed)
    drivers = np.cumsum(rng.standard_normal((n_rows, n_features - 1)) * 0.1, axis=0)
    drivers += rng.standard_normal((n_rows, n_features - 1)) * 0.05
    weights = np.linspace(0.5, 1.5, n_features - 1)
    if target_kind == "linear":
        target = 2.0 + drivers @ weights
    elif target_kind == "lagged-linear":
        # next target is an exact function of the previous row's drivers, so a
        # last-step regression can recover it perfectly (full-rank design)
        target = np.empty(n_rows)
        target[0] = 2.0
        target[1:] = 2.0 + drivers[:-1] @ weights
    elif target_kind == "constant":
        target = np.full(n_rows, 7.5)
    else:
        raise ValueError(target_kind)
    values = np.concatenate([drivers, target[:, None]], axis=1)
    names = [f"f{i}" for i in range(n_features - 1)] + ["target"]
    return SeriesDataset(names, values)


TINY_FORECASTER = ForecasterConfig(
    window=12, conv_kernel=3, conv_channels=6, pool_window=2, lstm_hidden=8,
    skip_hidden=4, skip_period=2, dropout=0.0, fusion_hidden=8,
    lr=3e-3, batch_size=128, epochs=3,
)

MICRO_FORECASTER = ForecasterConfig(
    window=12, conv_kernel=3, conv_channels=8, pool_window=2, lstm_hidden=12,
    skip_hidden=6, skip_period=2, dropout=0.0, fusion_hidden=12,
    lr=3e-3, batch_size=256, epochs=25,
)


@pytest.fixture(scope="session")
def micro_models():
    """Small but usable forecaster pair plus a scenario inside its reach.

    Returns (width_model, thickness_model, (width_target, thickness_target)).
    """
    from filmline.environment import ForecastBackend

    params = PlantParams()
    dataset = generate_dataset(params, 10000, "mixed", seed=7,
                               window=MICRO_FORECASTER.window)
    width, _ = train_forecaster(MICRO_FORECASTER, dataset, "width", seed=0)
    thickness, _ = train_forecaster(MICRO_FORECASTER, dataset, "thickness", seed=0)

    backend = ForecastBackend(width, thickness)
    w_lo, _ = backend.reset(*(params.knife_bounds[0], 2.7, 2.7))
    w_hi, _ = backend.reset(*(params.knife_bounds[1], 2.7, 2.7))
    _, h_lo = backend.reset(430.0, *([params.gap_bounds[0]] * 2))
    _, h_hi = backend.reset(430.0, *([params.gap_bounds[1]] * 2))
    scenario = (round(0.5 * (min(w_lo, w_hi) + max(w_lo, w_hi))),
                round(0.5 * (min(h_lo, h_hi) + max(h_lo, h_hi)), 1))
    return width, thickness, scenario
