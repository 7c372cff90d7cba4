"""Which program callables the traced run wraps, and the per-layer metrics.

Every wrapper sits on the attribute the program itself looks up at call
time: a module global for functions (``filmline.forecaster.lstm_cell``,
because ``forecaster.py`` imports the cell functions by name), or a class
attribute for methods, which covers every instance.
"""

from __future__ import annotations

from statistics import mean, median

from spans import Tracer, self_times, tail


def _triple(args, kwargs):
    return {"setpoints": [float(v) for v in args[1:4]]}


def _training(args, kwargs):
    training = kwargs.get("training", args[3] if len(args) > 3 else False)
    return {"training": bool(training)}


def _rows(args, kwargs):
    shape = getattr(args[1], "shape", ())
    return {"rows": 1 if len(shape) == 2 else int(shape[0])}


def _samples(args, kwargs):
    return {"samples": len(args[1])}


def instrument(tracer: Tracer):
    """Install the wrappers on every public callable a workload reaches."""
    from filmline import agent, autodiff, environment, forecaster, harness, nets, optim, plant

    tracer.wrap(plant, "generate_dataset", "plant.generate_dataset")
    tracer.wrap(environment.PlantBackend, "step", "plant.backend_step")

    tracer.wrap(autodiff, "backward", "autodiff.backward")
    tracer.count_calls(autodiff.Tape, "backprop", "autodiff.tape_nodes",
                       amount=lambda args, kwargs: len(args[0].order))
    tracer.count_calls(autodiff.Tensor, "__init__", "autodiff.tensors")

    tracer.wrap(forecaster, "lstm_cell", "cells.lstm_cell")
    tracer.wrap(forecaster, "gru_cell", "cells.gru_cell")

    tracer.wrap(optim.Adam, "step", "optim.adam_step")
    tracer.wrap(agent, "clip_grad_norm", "optim.clip_grad_norm")

    tracer.wrap(nets.PolicyNetwork, "forward", "nets.policy_forward")
    tracer.wrap(nets.CriticNetwork, "forward", "nets.critic_forward")
    tracer.wrap(nets.CriticNetwork, "values", "nets.critic_values")

    tracer.wrap(forecaster, "lstnet_forward", "forecaster.lstnet_forward", _training)
    tracer.wrap(forecaster.LstnetModel, "predict", "forecaster.predict", _rows,
                delta_of="autodiff.tensors")
    tracer.wrap(forecaster, "linreg_baseline", "forecaster.linreg_baseline")
    tracer.wrap(harness, "train_forecaster", "forecaster.train_forecaster")
    tracer.wrap(harness, "evaluate_forecaster", "forecaster.evaluate_forecaster")
    tracer.wrap(harness, "linreg_baseline", "forecaster.linreg_baseline")

    tracer.wrap(environment.FilmLineEnv, "__init__", "environment.env_construct")
    tracer.wrap(environment.FilmLineEnv, "reset", "environment.env_reset")
    tracer.wrap(environment.FilmLineEnv, "step", "environment.env_step")
    tracer.wrap(environment.ForecastBackend, "reset", "environment.backend_reset", _triple)
    tracer.wrap(environment.ForecastBackend, "step", "environment.backend_step")
    tracer.wrap(environment.PlantBackend, "reset", "environment.backend_reset", _triple)

    tracer.wrap(agent.MultiPathPpoAgent, "act", "agent.act")
    tracer.wrap(agent.MultiPathPpoAgent, "update", "agent.update", _samples)
    for module in (agent, harness):
        tracer.wrap(module, "train_agent", "agent.train_agent")
        tracer.wrap(module, "evaluate_greedy", "agent.evaluate_greedy")

    tracer.wrap(harness, "train_or_load_forecasters", "harness.train_or_load_forecasters")
    tracer.wrap(harness, "run_grid", "harness.run_grid")
    tracer.wrap(harness, "run_cell", "harness.run_cell")
    tracer.wrap(harness, "persist_record", "harness.persist_record")


# name -> unit; the README marks which ones are exact counts
PER_LAYER = {
    "plant.generate_dataset_s": "s",
    "plant.backend_step_calls": "count",
    "plant.backend_step_us_p50": "us",
    "autodiff.backward_calls": "count",
    "autodiff.backward_self_s": "s",
    "autodiff.tape_nodes_per_backward": "count",
    "autodiff.tensors_per_predict": "count",
    "cells.lstm_cell_calls": "count",
    "cells.lstm_cell_self_s": "s",
    "cells.gru_cell_calls": "count",
    "cells.gru_cell_self_s": "s",
    "optim.adam_step_calls": "count",
    "optim.adam_step_self_s": "s",
    "optim.clip_grad_norm_self_s": "s",
    "nets.policy_forward_calls": "count",
    "nets.policy_forward_self_s": "s",
    "nets.critic_forward_self_s": "s",
    "forecaster.forward_train_self_s": "s",
    "forecaster.forward_nograd_self_s": "s",
    "forecaster.predict_calls": "count",
    "forecaster.predict_us_p50": "us",
    "forecaster.predict_us_tail": "us",
    "forecaster.predict_rows_per_call": "rows",
    "environment.env_construct_s": "s",
    "environment.backend_reset_calls": "count",
    "environment.backend_reset_ms_p50": "ms",
    "environment.backend_reset_ms_tail": "ms",
    "environment.backend_steps_per_reset": "count",
    "environment.reset_accept_ratio": "ratio",
    "environment.backend_reset_repeat_frac": "ratio",
    "environment.env_step_calls": "count",
    "environment.env_step_us_p50": "us",
    "environment.env_step_us_tail": "us",
    "environment.env_step_self_s": "s",
    "agent.act_calls": "count",
    "agent.act_us_p50": "us",
    "agent.act_self_s": "s",
    "agent.update_calls": "count",
    "agent.update_ms_p50": "ms",
    "agent.update_self_s": "s",
    "agent.samples_per_update": "count",
    "harness.run_cell_calls": "count",
    "harness.persist_record_self_s": "s",
    "harness.train_or_load_forecasters_s": "s",
    "trace.overhead_s": "s",
}

# Spans of these names are summed over the whole traced run, set-up
# included, because the work they time sits in set-up on some workloads;
# every other metric covers the traced operation alone.
WHOLE_RUN = {"plant.generate_dataset": "plant.generate_dataset_s",
             "harness.train_or_load_forecasters": "harness.train_or_load_forecasters_s"}


def per_layer_metrics(tracer: Tracer, op: str):
    """(metrics, tails) for one traced operation.

    ``tails`` maps each ``*_tail`` metric to its (percentile, sample count).
    A metric whose layer the operation never reached reads 0.
    """
    own = self_times(tracer.spans)
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        if s.op == op:
            by_name.setdefault(s.name, []).append(s)
    counters = tracer.counters.get(op, {})

    def spans(name):
        return by_name.get(name, [])

    def calls(name):
        return len(spans(name))

    def self_s(*names):
        return sum(own[s.id] for n in names for s in spans(n))

    def p50(name, scale):
        durations = [s.duration * scale for s in spans(name)]
        return median(durations) if durations else 0.0

    tails = {}

    def tail_of(metric, name, scale):
        durations = [s.duration * scale for s in spans(name)]
        if not durations:
            tails[metric] = (0.0, 0)
            return 0.0
        q, value, n = tail(durations)
        tails[metric] = (q, n)
        return value

    m = {}
    for name, metric in WHOLE_RUN.items():
        m[metric] = sum(s.duration for s in tracer.spans if s.name == name)

    m["plant.backend_step_calls"] = calls("plant.backend_step")
    m["plant.backend_step_us_p50"] = p50("plant.backend_step", 1e6)

    m["autodiff.backward_calls"] = calls("autodiff.backward")
    m["autodiff.backward_self_s"] = self_s("autodiff.backward")
    m["autodiff.tape_nodes_per_backward"] = (
        counters.get("autodiff.tape_nodes", 0) / calls("autodiff.backward")
        if calls("autodiff.backward") else 0.0)
    predicts = spans("forecaster.predict")
    m["autodiff.tensors_per_predict"] = (
        mean(s.attrs["autodiff.tensors"] for s in predicts) if predicts else 0.0)

    for cell in ("lstm_cell", "gru_cell"):
        m[f"cells.{cell}_calls"] = calls(f"cells.{cell}")
        m[f"cells.{cell}_self_s"] = self_s(f"cells.{cell}")

    m["optim.adam_step_calls"] = calls("optim.adam_step")
    m["optim.adam_step_self_s"] = self_s("optim.adam_step")
    m["optim.clip_grad_norm_self_s"] = self_s("optim.clip_grad_norm")

    m["nets.policy_forward_calls"] = calls("nets.policy_forward")
    m["nets.policy_forward_self_s"] = self_s("nets.policy_forward")
    m["nets.critic_forward_self_s"] = self_s("nets.critic_forward", "nets.critic_values")

    forwards = spans("forecaster.lstnet_forward")
    for label, training in (("train", True), ("nograd", False)):
        m[f"forecaster.forward_{label}_self_s"] = sum(
            own[s.id] for s in forwards if s.attrs["training"] is training)
    m["forecaster.predict_calls"] = len(predicts)
    m["forecaster.predict_us_p50"] = p50("forecaster.predict", 1e6)
    m["forecaster.predict_us_tail"] = tail_of("forecaster.predict_us_tail",
                                              "forecaster.predict", 1e6)
    m["forecaster.predict_rows_per_call"] = (
        mean(s.attrs["rows"] for s in predicts) if predicts else 0.0)

    resets = spans("environment.backend_reset")
    reset_ids = {s.id for s in resets}
    env_reset_ids = {s.id for s in spans("environment.env_reset")}
    steps_in_resets = sum(1 for n in ("environment.backend_step", "plant.backend_step")
                          for s in spans(n) if s.parent in reset_ids)
    seen, repeats = set(), 0
    for s in resets:
        key = tuple(s.attrs["setpoints"])
        repeats += key in seen
        seen.add(key)
    under_env_reset = sum(1 for s in resets if s.parent in env_reset_ids)
    m["environment.env_construct_s"] = sum(s.duration for s in spans("environment.env_construct"))
    m["environment.backend_reset_calls"] = len(resets)
    m["environment.backend_reset_ms_p50"] = p50("environment.backend_reset", 1e3)
    m["environment.backend_reset_ms_tail"] = tail_of("environment.backend_reset_ms_tail",
                                                     "environment.backend_reset", 1e3)
    m["environment.backend_steps_per_reset"] = steps_in_resets / len(resets) if resets else 0.0
    m["environment.reset_accept_ratio"] = (
        len(env_reset_ids) / under_env_reset if under_env_reset else 0.0)
    m["environment.backend_reset_repeat_frac"] = repeats / len(resets) if resets else 0.0
    m["environment.env_step_calls"] = calls("environment.env_step")
    m["environment.env_step_us_p50"] = p50("environment.env_step", 1e6)
    m["environment.env_step_us_tail"] = tail_of("environment.env_step_us_tail",
                                                "environment.env_step", 1e6)
    m["environment.env_step_self_s"] = self_s("environment.env_step")

    m["agent.act_calls"] = calls("agent.act")
    m["agent.act_us_p50"] = p50("agent.act", 1e6)
    m["agent.act_self_s"] = self_s("agent.act")
    updates = spans("agent.update")
    m["agent.update_calls"] = len(updates)
    m["agent.update_ms_p50"] = p50("agent.update", 1e3)
    m["agent.update_self_s"] = self_s("agent.update")
    m["agent.samples_per_update"] = mean(s.attrs["samples"] for s in updates) if updates else 0.0

    m["harness.run_cell_calls"] = calls("harness.run_cell")
    m["harness.persist_record_self_s"] = self_s("harness.persist_record")
    return m, tails
