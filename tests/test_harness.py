"""Configuration loading, variants, grid cells and output emission."""

import dataclasses
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from filmline import cli
from filmline.agent import MultiPathPpoAgent
from filmline.environment import (
    EpisodeConfig, FilmLineEnv, ForecastBackend, RewardConfig, run_episodes,
)
from filmline.harness import (
    _BRANCH_KEYS, _REFUSED_KEYS, ABLATION_SCENARIO, AppConfig, ExperimentPlan, RunRecord,
    VARIANTS, _coerce, aggregate_records, cell_dir, emit_outputs, load_config, load_records,
    mean_step_of, persist_record, run_cell, run_grid, scenario_tag, stable_seed,
    train_or_load_forecasters, variant_setup, write_csv,
)
from filmline.svgplot import LinePlot

from test_environment import LinearBackend


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


@pytest.mark.parametrize("section, key, value", [
    ("forecaster", "patience", "5"),
    ("reward", "gate_steady", "false"),
    ("reward", "use_progress", "false"),
    ("reward", "use_action_penalty", "false"),
    ("reward", "use_steady", "false"),
    ("experiment", "dataset_excitation", "steps"),
    ("env", "init_width_offset", "[6, 28]"),
    ("env", "init_thickness_offset", "[0.26, 0.5]"),
    ("env", "init_width_near", "[1.5, 5]"),
    ("env", "init_thickness_near", "[0.08, 0.24]"),
    ("env", "near_start_fraction", "1.5"),
])
def test_removed_config_keys_are_rejected_by_name(tmp_path, section, key, value):
    path = tmp_path / "cfg.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ValueError, match=rf"\[{section}\]: unknown key '{key}'"):
        load_config(str(path))


@pytest.mark.parametrize("section, key, value, reason", [
    # run_cell and evaluate overwrite these, so a file value would never apply
    ("env", "width_target", "400", r"\[experiment\] scenarios"),
    ("env", "thickness_target", "2.5", r"\[experiment\] scenarios"),
    ("env", "max_steps", "40", r"\[experiment\] steps_options"),
    ("plant", "aux", "foo, bar", "auxiliary channel specs"),
])
def test_keys_a_file_cannot_set_are_rejected_by_name(tmp_path, section, key, value, reason):
    path = tmp_path / "cfg.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ValueError, match=rf"\[{section}\]: '{key}' cannot be set.*{reason}"):
        load_config(str(path))


@pytest.mark.parametrize("section, key, value, message", [
    ("reward", "weights", "1, 2, 3", "weights must hold 2 values"),
    ("reward", "weights", "1", "weights must hold 2 values"),
    ("forecaster", "batch_size", "0", "batch_size must be >= 1"),
    ("forecaster", "epochs", "0", "epochs must be >= 1"),
    # each of these makes training climb its loss or zeroes every update
    ("forecaster", "lr", "0", "lr must be > 0"),
    ("forecaster", "lr", "-0.5", "lr must be > 0"),
    ("agent", "lr", "-1", "lr must be > 0"),
    ("agent", "grad_clip", "-0.5", "grad_clip must be > 0"),
    ("agent", "grad_clip", "0", "grad_clip must be > 0"),
    ("agent", "value_coef", "-1", "value_coef must be >= 0"),
    ("agent", "entropy_coef", "-0.01", "entropy_coef must be >= 0"),
    # empty lists would fail late: after the forecaster pair, or as a bare IndexError
    ("agent", "trunk_sizes", "", "trunk_sizes must hold one or more sizes"),
    # a 0-wide layer passes nothing on, so the policy ignores the state
    ("agent", "trunk_sizes", "0, 64", "trunk_sizes must hold one or more sizes, each >= 1"),
    ("agent", "width.hidden_sizes", "-3", "hidden_sizes must each be >= 1"),
    ("experiment", "scenarios", "", "scenarios must not be empty"),
    ("experiment", "steps_options", "", "steps_options must not be empty"),
    ("experiment", "variants", "", "variants must not be empty"),
    # a bare ZeroDivisionError, a silently degenerate model, or a numpy error while training
    ("forecaster", "pool_window", "0", "pool_window must be >= 1"),
    ("forecaster", "lstm_hidden", "0", "lstm_hidden must be >= 1"),
    ("forecaster", "skip_hidden", "0", "skip_hidden must be >= 1"),
    ("forecaster", "fusion_hidden", "0", "fusion_hidden must be >= 1"),
    ("forecaster", "conv_channels", "0", "conv_channels must be >= 1"),
    ("forecaster", "conv_kernel", "0", "conv_kernel must be >= 1"),
    # the first reset, the first one-step episode, or the dataset would fail
    ("env", "history", "-1", "history must be >= 0"),
    ("agent", "adv_eps", "0", "adv_eps must be > 0"),
    ("plant", "runout_period", "0", "runout_period must be > 0"),
])
def test_values_that_would_fail_later_are_rejected(tmp_path, section, key, value, message):
    path = tmp_path / "cfg.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ValueError, match=rf"\[{section}\].*{message}"):
        load_config(str(path))


def test_empty_hidden_sizes_gives_a_one_layer_head(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[agent]\nwidth.hidden_sizes =\n")
    cfg = load_config(str(path))
    assert cfg.agent.width.hidden_sizes == []
    agent = MultiPathPpoAgent(cfg.env.state_dim, [cfg.agent.width, cfg.agent.thickness],
                              cfg.agent.update, seed=0)
    assert len(agent.policy.heads[0].layers) == 1


def ini_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return ", ".join(f"{v[0]!r}/{v[1]!r}" if isinstance(v, list) else str(v)
                         for v in value)
    return str(value)


def test_every_default_written_to_a_file_loads_back_unchanged(tmp_path):
    ref = AppConfig()
    lines = []
    for section in dataclasses.fields(AppConfig):
        obj = getattr(ref, section.name)
        if section.name == "agent":
            items = {f.name: getattr(obj.update, f.name) for f in dataclasses.fields(obj.update)}
            for branch in ("width", "thickness"):
                items.update({f"{branch}.{k}": getattr(getattr(obj, branch), k)
                              for k in _BRANCH_KEYS})
        else:
            items = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
                     if (section.name, f.name) not in _REFUSED_KEYS}
        lines.append(f"[{section.name}]")
        lines += [f"{key} = {ini_value(value)}" for key, value in items.items()]
    path = tmp_path / "defaults.ini"
    path.write_text("\n".join(lines) + "\n")
    loaded = load_config(str(path))
    assert loaded == ref
    assert repr(loaded) == repr(ref)  # same types too: ints, tuples and lists


@pytest.mark.parametrize("example", [True, "text"])
def test_a_field_type_with_no_parser_is_a_type_error_naming_the_key(example):
    with pytest.raises(TypeError, match=r"\[agent\] flag"):
        _coerce("agent", "flag", "true", example)


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


@pytest.mark.parametrize("section, key, value", [
    ("env", "knife_bounds", "[500, 360]"),
    ("plant", "gap_bounds", "[3.6, 1.8]"),
])
def test_actuator_bounds_and_start_fraction_are_range_checked(tmp_path, section, key, value):
    path = tmp_path / "cfg.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ValueError, match=rf"\[{section}\].*{key}"):
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


def reward_coefs(r):
    return (r.error_coef, r.progress_coef, r.action_penalty_coef, r.steady_coef)


def test_reward_variant_switches():
    # a file's coefficients reach every term a variant keeps
    cfg = AppConfig()
    given = replace(cfg.reward, error_coef=3.0, progress_coef=0.4, action_penalty_coef=0.1,
                    steady_coef=0.6, steady_threshold=0.8)
    for n, name in enumerate(("reward-1", "reward-2", "reward-3", "reward-4"), start=1):
        _, _, r = variant_setup(name, cfg.agent, given)
        assert reward_coefs(r) == reward_coefs(given)[:n] + (0.0,) * (4 - n)
        assert replace(r, progress_coef=0.4, action_penalty_coef=0.1, steady_coef=0.6) == given
    for name in ("mpd-ppo", "ppo-single-net", "ppo-multibranch-uniform-clip",
                 "mpd-ppo-uniform-clip"):
        assert variant_setup(name, cfg.agent, given)[2] is given


def test_reward_variant_step_sums_only_its_terms():
    # seed 36 starts where one knife step toward the width target earns all four
    # width terms, so a term the variant drops would show in the total
    def first_step(reward_cfg):
        env = FilmLineEnv(LinearBackend(), EpisodeConfig(max_steps=5), reward_cfg, seed=36)
        env.reset()
        width, thickness = env._signed
        action = np.array([-np.sign(width), -0.5 * np.sign(thickness), -0.5 * np.sign(thickness)])
        _, reward, _, info = env.step(action)
        return reward, info["components"]

    default = RewardConfig()
    _, comps = first_step(default)
    assert all(term != 0.0 for term in comps["width"])
    cfg = AppConfig()
    for n, name in enumerate(("reward-1", "reward-2", "reward-3", "reward-4"), start=1):
        reward, _ = first_step(variant_setup(name, cfg.agent, default)[2])
        expected = sum(w * sum(comps[obj][:n])
                       for w, obj in zip(default.weights, ("width", "thickness")))
        assert reward == pytest.approx(expected, abs=1e-12), name


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


@pytest.mark.parametrize("flags, where", [(["--oracle"], "true plant"),
                                          ([], "forecaster surrogate")],
                         ids=["oracle", "surrogate"])
def test_cli_evaluates_a_run_cell_checkpoint_on_the_true_plant(tmp_path, tiny_app_config,
                                                              micro_models, capsys, flags, where):
    width, thickness, scenario = micro_models
    rec = run_cell(tiny_app_config, (width, thickness), "mpd-ppo", scenario, 12, 0,
                   out_dir=str(tmp_path))
    assert not rec.failed, rec.error
    # without --oracle the surrogate is the stored pair, reloaded under a matching config
    (tmp_path / "forecaster").mkdir()
    width.save(tmp_path / "forecaster" / "width.npz")
    thickness.save(tmp_path / "forecaster" / "thickness.npz")
    ini = tmp_path / "cfg.ini"
    ini.write_text("[forecaster]\n" + "".join(f"{k} = {v}\n" for k, v in vars(width.cfg).items()))
    cli.main(["evaluate", "--config", str(ini), "--out-dir", str(tmp_path), "--scenario",
              f"{scenario[0]:g}/{scenario[1]:g}", "--steps", "12", "--episodes", "2", *flags])
    out = capsys.readouterr().out
    assert f"greedy evaluation on the {where}" in out
    assert out.count("  episode ") == 2


def test_cli_verbs_from_forecaster_to_tables(tmp_path, micro_models, capsys):
    out = tmp_path / "out"
    ini = tmp_path / "cfg.ini"
    ini.write_text("[forecaster]\nwindow = 12\nconv_kernel = 3\nconv_channels = 4\n"
                   "lstm_hidden = 4\nskip_hidden = 2\nskip_period = 2\nfusion_hidden = 4\n"
                   "batch_size = 256\nepochs = 1\n"
                   "[experiment]\ndataset_steps = 1000\n")
    cli.main(["train-forecaster", "--config", str(ini), "--out-dir", str(out)])
    metrics = (out / "forecaster" / "metrics.csv").read_text().splitlines()
    assert len(metrics) == 1 + 4  # header, then lstnet and linreg for each target

    # the grid verbs run on the session's trained pair, stored under a matching config
    width, thickness, scenario = micro_models
    width.save(out / "forecaster" / "width.npz")
    thickness.save(out / "forecaster" / "thickness.npz")
    forecaster = "".join(f"{k} = {v}\n" for k, v in vars(width.cfg).items())
    tag = f"{scenario[0]:g}/{scenario[1]:g}"
    ini.write_text(f"[forecaster]\n{forecaster}[experiment]\nscenarios = {tag}\n"
                   "steps_options = 12\nseeds = 1\nepisodes = 2\neval_episodes = 1\n")
    common = ["--config", str(ini), "--out-dir", str(out)]
    cli.main(["train-agent", *common, "--scenario", tag, "--steps", "12"])
    cli.main(["run-grid", *common])
    assert "grid complete: 1 runs" in capsys.readouterr().out
    table = out / "aggregate" / "tableV.csv"
    grid_bytes = table.read_bytes()
    table.unlink()
    cli.main(["emit-plots", *common])
    assert table.read_bytes() == grid_bytes


@pytest.mark.parametrize("verb", ["train-agent", "evaluate"])
def test_cli_refuses_a_malformed_scenario_before_any_forecaster_work(tmp_path, capsys, verb):
    out = tmp_path / "out"
    ini = tmp_path / "cfg.ini"
    ini.write_text("[forecaster]\nwindow = 12\nconv_kernel = 3\nconv_channels = 4\n"
                   "lstm_hidden = 4\nskip_hidden = 2\nskip_period = 2\nfusion_hidden = 4\n"
                   "batch_size = 256\nepochs = 1\n"
                   "[experiment]\ndataset_steps = 1000\n")
    with pytest.raises(SystemExit) as exc:
        cli.main([verb, "--config", str(ini), "--out-dir", str(out), "--scenario", "480"])
    assert exc.value.code == 2  # an argparse usage error
    assert "--scenario" in capsys.readouterr().err
    assert not (out / "forecaster").exists()


def test_python_dash_m_filmline_runs_the_cli_from_a_checkout():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, "-m", "filmline", "--help"], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "run-grid" in done.stdout


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


def test_trace_csv_has_each_objectives_reward_terms_in_order(tmp_path):
    env = FilmLineEnv(LinearBackend(), EpisodeConfig(max_steps=3), RewardConfig(), seed=0)
    trace = run_episodes(env, lambda state: np.array([1.0, -0.5, 0.5]), 1)[0]["trace"]
    rec = RunRecord("mpd-ppo", (480.0, 3.0), 3, 0, 3.0, [3], [], trace, 0.0)
    persist_record(str(tmp_path), rec)
    with open(os.path.join(cell_dir(str(tmp_path), rec), "trace.csv")) as fh:
        header, *rows = fh.read().splitlines()
    assert header.split(",") == [
        "step", "width", "thickness", "width_target", "thickness_target",
        "a_knife", "a_ds", "a_os",
        "width_r_error", "width_r_progress", "width_p_action", "width_r_steady",
        "thickness_r_error", "thickness_r_progress", "thickness_p_action",
        "thickness_r_steady", "done"]
    assert len(rows) == len(trace)
    for row, info in zip(rows, trace):
        cells = [float(v) for v in row.split(",")]
        assert cells[8:16] == [*info["components"]["width"], *info["components"]["thickness"]]


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
    assert "_check_targets" in stored[0].traceback
    assert not os.path.exists(os.path.join(cell_dir(str(tmp_path), failed[0]),
                                           "checkpoint.npz"))
    emit_outputs(load_records(str(tmp_path)), str(tmp_path))
    with open(tmp_path / "aggregate" / "tableV.csv") as fh:
        table = [line.strip().split(",") for line in fh][1:]
    assert sorted(int(row[-1]) for row in table) == [0, 1]  # failed_runs


def test_a_flat_surrogate_reaches_disk_as_a_named_failure(tmp_path, tiny_app_config):
    class FlatBackend:  # a surrogate whose readings ignore the set-points
        def settle(self, triples):
            return [self.step(*t) for t in triples]

        def step(self, knife, ds, os_):
            return 480.0, 3.0

        reset = step

    rec = run_cell(tiny_app_config, None, "mpd-ppo", (480.0, 3.0), 12, 0,
                   out_dir=str(tmp_path), backend=FlatBackend())
    assert rec.failed
    assert rec.error.startswith("ValueError: flat knife->width response")
    assert [r.error for r in load_records(str(tmp_path))] == [rec.error]


def test_run_grid_shares_one_settle_memo_and_keeps_curve_bytes(tmp_path, tiny_app_config,
                                                               micro_models, monkeypatch):
    width, thickness, scenario = micro_models
    events = []
    env_init, backend_settle = FilmLineEnv.__init__, ForecastBackend._settle_lanes

    def init(self, *args, **kwargs):
        events.append("construct")
        env_init(self, *args, **kwargs)
        events.append("built")

    def settle_lanes(self, *args, **kwargs):
        events.append("settle")
        return backend_settle(self, *args, **kwargs)

    monkeypatch.setattr(FilmLineEnv, "__init__", init)
    monkeypatch.setattr(ForecastBackend, "_settle_lanes", settle_lanes)
    records = run_grid(tiny_app_config, str(tmp_path / "grid"), models=(width, thickness),
                       variants=["mpd-ppo"], scenarios=[list(scenario)], steps_options=[12],
                       seeds=[0, 1], verbose=False)
    monkeypatch.undo()
    assert not any(r.failed for r in records)
    first = events.index("construct")
    second = events.index("construct", first + 1)
    assert "settle" in events[first:events.index("built")]  # the first cell probes
    assert events[second:second + 2] == ["construct", "built"]  # the second reuses them

    tag = scenario_tag(scenario)
    for seed in (0, 1):
        run_cell(tiny_app_config, (width, thickness), "mpd-ppo", scenario, 12, seed,
                 out_dir=str(tmp_path / "alone"))
        curves = [(tmp_path / d / "runs" / "mpd-ppo" / tag / "12step" / f"seed{seed}"
                   / "curve.csv").read_bytes() for d in ("grid", "alone")]
        assert curves[0] == curves[1]


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
