"""Configuration loading, variants, grid cells and output emission."""

import os
from dataclasses import replace

import numpy as np
import pytest

from filmline import cli
from filmline.harness import (
    ABLATION_SCENARIO, AppConfig, ExperimentPlan, RunRecord, VARIANTS,
    aggregate_records, cell_dir, emit_outputs, load_config, load_records, mean_step_of,
    run_cell, run_grid, scenario_tag, stable_seed, train_or_load_forecasters,
    variant_setup, write_csv,
)
from filmline.svgplot import LinePlot


# ----------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------

def test_missing_config_gives_defaults():
    cfg = load_config(None)
    ref = AppConfig()
    assert cfg.plant == ref.plant
    assert cfg.forecaster == ref.forecaster
    assert cfg.reward == ref.reward


def test_empty_config_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    cfg = load_config(str(path))
    assert cfg.agent.width.clip_epsilon == 0.2
    assert cfg.agent.thickness.clip_epsilon == 0.1


def test_branch_key_roundtrip(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[agent]\nwidth.clip_epsilon = 0.25\nthickness.init_sigma = 0.4\n"
                    "lr = 0.001\n")
    cfg = load_config(str(path))
    assert cfg.agent.width.clip_epsilon == 0.25
    assert cfg.agent.thickness.init_sigma == 0.4
    assert cfg.agent.update.lr == 0.001


def test_reward_clip_bounds_parse(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[reward]\ntotal_clip = [-7, 7]\nerror_coef = 2.5\n")
    cfg = load_config(str(path))
    assert cfg.reward.total_clip == (-7.0, 7.0)
    assert cfg.reward.error_coef == 2.5


def test_experiment_section_parses_scenarios(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[experiment]\nscenarios = 480/3.0, 380/2.2\nseeds = 2\n"
                    "steps_options = 50\nvariants = mpd-ppo, reward-1\n")
    cfg = load_config(str(path))
    assert cfg.experiment.scenarios == [[480.0, 3.0], [380.0, 2.2]]
    assert cfg.experiment.seeds == 2
    assert cfg.experiment.variants == ["mpd-ppo", "reward-1"]


def test_unknown_key_is_rejected_by_name(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[plant]\nbogus_knob = 3\n")
    with pytest.raises(ValueError, match="bogus_knob"):
        load_config(str(path))


def test_unknown_section_is_rejected(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[misc]\nx = 1\n")
    with pytest.raises(ValueError, match="misc"):
        load_config(str(path))


def test_out_of_range_value_is_rejected(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[agent]\nwidth.clip_epsilon = 1.5\n")
    with pytest.raises(ValueError, match="clip_epsilon"):
        load_config(str(path))


def test_bad_number_names_section_and_key(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[forecaster]\nwindow = many\n")
    with pytest.raises(ValueError, match=r"\[forecaster\] window"):
        load_config(str(path))


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(str(tmp_path / "nope.ini"))


def test_unknown_variant_rejected(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[experiment]\nvariants = super-ppo\n")
    with pytest.raises(ValueError, match="super-ppo"):
        load_config(str(path))


# ----------------------------------------------------------------------
# variants
# ----------------------------------------------------------------------

def test_every_variant_builds():
    cfg = AppConfig()
    for name in VARIANTS:
        branches, shared, reward = variant_setup(name, cfg.agent, cfg.reward)
        assert sum(b.action_dims for b in branches) == 3
        assert all(0 < b.clip_epsilon < 1 for b in branches)


def test_single_net_variant_shape():
    cfg = AppConfig()
    branches, shared, _ = variant_setup("ppo-single-net", cfg.agent, cfg.reward)
    assert len(branches) == 1 and branches[0].action_dims == 3
    assert branches[0].loss_weight == 1.0


def test_uniform_clip_variants():
    cfg = AppConfig()
    b, shared, _ = variant_setup("mpd-ppo-uniform-clip", cfg.agent, cfg.reward)
    assert b[0].clip_epsilon == b[1].clip_epsilon == pytest.approx(0.15)
    assert not shared
    b, shared, _ = variant_setup("ppo-multibranch-uniform-clip", cfg.agent, cfg.reward)
    assert b[0].clip_epsilon == b[1].clip_epsilon
    assert shared


def test_reward_variant_switches():
    cfg = AppConfig()
    _, _, r1 = variant_setup("reward-1", cfg.agent, cfg.reward)
    assert (r1.use_progress, r1.use_action_penalty, r1.use_steady) == (False, False, False)
    _, _, r2 = variant_setup("reward-2", cfg.agent, cfg.reward)
    assert (r2.use_progress, r2.use_action_penalty, r2.use_steady) == (True, False, False)
    _, _, r3 = variant_setup("reward-3", cfg.agent, cfg.reward)
    assert (r3.use_progress, r3.use_action_penalty, r3.use_steady) == (True, True, False)
    _, _, r4 = variant_setup("reward-4", cfg.agent, cfg.reward)
    assert (r4.use_progress, r4.use_action_penalty, r4.use_steady) == (True, True, True)


def test_stable_seed_is_deterministic():
    assert stable_seed("a", 1, 2.0) == stable_seed("a", 1, 2.0)
    assert stable_seed("a", 1) != stable_seed("a", 2)


# ----------------------------------------------------------------------
# records and aggregation
# ----------------------------------------------------------------------

def fake_record(variant="mpd-ppo", scenario=(480.0, 3.0), steps=100, seed=0,
                avg=20.0, failed=False):
    trace = [{"step": i + 1, "width": 470.0 + i, "thickness": 2.9,
              "width_error_mm": -10.0 + i, "thickness_error_mm": -0.1,
              "within_tolerance": False, "setpoints": np.zeros(3),
              "applied_action_units": np.zeros(3),
              "components": {"width": (1.0, 0.0, 0.0, 0.0),
                             "thickness": (1.0, 0.0, 0.0, 0.0)}}
             for i in range(5)]
    return RunRecord(variant=variant, scenario=scenario, steps_per_episode=steps,
                     seed=seed, average_optimize_step=avg, eval_steps=[avg] * 3,
                     curve=[{"episode": 0, "total_reward": 1.0, "optimize_step": avg,
                             "width_err": 0.5, "thickness_err": 0.01}],
                     first_eval_trace=trace, wall_time=0.1, failed=failed)


def test_aggregate_groups_by_cell():
    records = [fake_record(seed=s, avg=10.0 + s) for s in range(3)]
    rows = aggregate_records(records)
    assert len(rows) == 1
    assert rows[0]["mean_step"] == pytest.approx(11.0)
    assert rows[0]["min_step"] == 10.0 and rows[0]["max_step"] == 12.0
    assert rows[0]["seeds"] == 3


def test_mean_step_lookup():
    rows = aggregate_records([fake_record(avg=17.0)])
    assert mean_step_of(rows, "mpd-ppo", ABLATION_SCENARIO, 100) == 17.0
    assert mean_step_of(rows, "reward-1") is None


def test_emit_outputs_writes_tables_and_plots(tmp_path):
    records = []
    for variant in ("mpd-ppo", "ppo-single-net", "reward-3", "reward-4"):
        for seed in range(2):
            records.append(fake_record(variant=variant, seed=seed,
                                       avg=15.0 if variant == "mpd-ppo" else 40.0))
    emit_outputs(records, str(tmp_path))
    for table in ("tableV.csv", "tableVI.csv", "tableVII.csv", "tableVIII.csv"):
        assert (tmp_path / "aggregate" / table).exists()
    content = (tmp_path / "aggregate" / "tableVI.csv").read_text()
    assert "PASS" in content  # mpd-ppo (15) < ppo-single-net (40)
    plots = list((tmp_path / "plots").glob("*.svg"))
    assert len(plots) == 8  # 4 variants x (width, thickness)
    svg = plots[0].read_text()
    assert "<svg" in svg and "polyline" in svg and "band" in svg


def test_emit_outputs_is_deterministic(tmp_path):
    records = [fake_record(seed=s) for s in range(2)]
    emit_outputs(records, str(tmp_path / "a"))
    emit_outputs(records, str(tmp_path / "b"))
    for sub in ("aggregate/tableV.csv", "plots"):
        pass
    a = (tmp_path / "a" / "aggregate" / "tableV.csv").read_bytes()
    b = (tmp_path / "b" / "aggregate" / "tableV.csv").read_bytes()
    assert a == b
    pa = sorted((tmp_path / "a" / "plots").glob("*.svg"))[0].read_bytes()
    pb = sorted((tmp_path / "b" / "plots").glob("*.svg"))[0].read_bytes()
    assert pa == pb


def test_emit_outputs_rejects_empty():
    with pytest.raises(ValueError):
        emit_outputs([], ".")


def test_write_csv_uses_full_float_repr(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b"], [[0.1, 1], [1 / 3, 2]])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "0.1,1"
    assert lines[2] == f"{1 / 3!r},2"


def test_scenario_tag_format():
    assert scenario_tag((480.0, 3.0)) == "w480_t3"
    assert scenario_tag((380.0, 2.2)) == "w380_t2.2"


# ----------------------------------------------------------------------
# grid cells against the micro forecaster
# ----------------------------------------------------------------------

@pytest.fixture()
def tiny_app_config():
    from dataclasses import replace
    cfg = AppConfig()
    cfg.experiment = replace(cfg.experiment, episodes=3, seeds=1, eval_episodes=2,
                             steps_options=[12])
    return cfg


def test_run_cell_persists_artifacts(tmp_path, tiny_app_config, micro_models):
    width, thickness, scenario = micro_models
    rec = run_cell(tiny_app_config, (width, thickness), "mpd-ppo", scenario, 12, 0,
                   out_dir=str(tmp_path))
    assert not rec.failed, rec.error
    d = tmp_path / "runs" / "mpd-ppo" / scenario_tag(scenario) / "12step" / "seed0"
    for name in ("curve.csv", "trace.csv", "record.json", "checkpoint.npz"):
        assert (d / name).exists()
    assert 1 <= rec.average_optimize_step <= 12
    loaded = load_records(str(tmp_path))
    assert len(loaded) == 1 and loaded[0].variant == "mpd-ppo"
    assert loaded[0].average_optimize_step == rec.average_optimize_step


def test_cli_evaluates_a_run_cell_checkpoint_on_the_true_plant(tmp_path, tiny_app_config,
                                                              micro_models, capsys):
    width, thickness, scenario = micro_models
    rec = run_cell(tiny_app_config, (width, thickness), "mpd-ppo", scenario, 12, 0,
                   out_dir=str(tmp_path))
    assert not rec.failed, rec.error
    cli.main(["evaluate", "--out-dir", str(tmp_path), "--scenario",
              f"{scenario[0]:g}/{scenario[1]:g}", "--steps", "12", "--episodes", "2",
              "--oracle"])
    out = capsys.readouterr().out
    assert "greedy evaluation on the true plant" in out
    assert out.count("  episode ") == 2


@pytest.mark.parametrize("change", [dict(window=16, lstm_hidden=8), dict(epochs=26)])
def test_stored_forecasters_load_only_under_their_config(tmp_path, micro_models, change):
    width, thickness, _ = micro_models
    fdir = tmp_path / "forecaster"
    fdir.mkdir()
    width.save(fdir / "width.npz")
    thickness.save(fdir / "thickness.npz")
    cfg = AppConfig()
    cfg.forecaster = width.cfg
    loaded_width, _ = train_or_load_forecasters(cfg, str(tmp_path))
    window = np.tile(width.norm.mean, (width.cfg.window, 1))
    assert loaded_width.predict(window) == width.predict(window)

    cfg.forecaster = replace(width.cfg, **change)
    with pytest.raises(ValueError, match="width.npz"):
        train_or_load_forecasters(cfg, str(tmp_path))


def test_run_cell_is_byte_deterministic(tmp_path, tiny_app_config, micro_models):
    width, thickness, scenario = micro_models
    rec1 = run_cell(tiny_app_config, (width, thickness), "mpd-ppo", scenario, 12, 0,
                    out_dir=str(tmp_path / "one"))
    rec2 = run_cell(tiny_app_config, (width, thickness), "mpd-ppo", scenario, 12, 0,
                    out_dir=str(tmp_path / "two"))
    assert not rec1.failed and not rec2.failed
    tag = scenario_tag(scenario)
    c1 = (tmp_path / "one" / "runs" / "mpd-ppo" / tag / "12step" / "seed0"
          / "curve.csv").read_bytes()
    c2 = (tmp_path / "two" / "runs" / "mpd-ppo" / tag / "12step" / "seed0"
          / "curve.csv").read_bytes()
    assert c1 == c2


def test_failed_cell_records_sentinel_and_grid_continues(tmp_path, tiny_app_config,
                                                         micro_models):
    # an unreachable width target must crash the cell, not the grid
    width, thickness, scenario = micro_models
    records = run_grid(tiny_app_config, str(tmp_path), models=(width, thickness),
                       variants=["mpd-ppo"], scenarios=[[950.0, 3.0], list(scenario)],
                       steps_options=[12], seeds=[0], verbose=False)
    assert len(records) == 2
    failed = [r for r in records if r.failed]
    assert len(failed) == 1
    assert failed[0].average_optimize_step == 12.0
    assert "reachable" in failed[0].error
    # the failed cell reaches disk with its cause, and without a checkpoint
    stored = [r for r in load_records(str(tmp_path)) if r.failed]
    assert [(r.scenario, r.error) for r in stored] == [(failed[0].scenario, failed[0].error)]
    assert not os.path.exists(os.path.join(cell_dir(str(tmp_path), failed[0]),
                                           "checkpoint.npz"))
    emit_outputs(load_records(str(tmp_path)), str(tmp_path))
    with open(tmp_path / "aggregate" / "tableV.csv") as fh:
        table = [line.strip().split(",") for line in fh][1:]
    assert sorted(int(row[-1]) for row in table) == [0, 1]  # failed_runs


def test_run_grid_row_count(tmp_path, tiny_app_config, micro_models):
    width, thickness, scenario = micro_models
    records = run_grid(tiny_app_config, str(tmp_path), models=(width, thickness),
                       variants=["mpd-ppo", "reward-1"],
                       scenarios=[list(scenario)], steps_options=[12], seeds=[0, 1],
                       verbose=False)
    assert len(records) == 4  # variants x scenarios x steps x seeds
    rows = aggregate_records(records)
    assert len(rows) == 2


# ----------------------------------------------------------------------
# svg plotting
# ----------------------------------------------------------------------

def test_line_plot_renders_series_band_and_lines(tmp_path):
    plot = LinePlot("demo", "x", "y")
    xs = np.arange(1, 6)
    plot.add_series("mean", xs, xs * 2.0)
    plot.add_band("range", xs, xs * 2.0 - 1, xs * 2.0 + 1)
    plot.add_hline("target", 5.0)
    text = plot.render()
    assert text.count("<polyline") == 1
    assert text.count("<polygon") == 1
    assert "target" in text and "demo" in text
    path = tmp_path / "plot.svg"
    plot.save(path)
    assert path.read_text() == text
