"""The traced benchmark's wrappers install on, and come off, the program.

``perfbench/layers.py`` looks every wrapped callable up by module and name,
so renaming or moving one of them fails here and not only in a traced run.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

from layers import instrument  # noqa: E402
from spans import Tracer  # noqa: E402

from filmline import agent, environment, harness  # noqa: E402


def test_instrument_wraps_and_uninstall_restores_every_callable():
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in (
        (harness, "persist_record"), (harness, "train_or_load_forecasters"),
        (harness, "evaluate_greedy"), (agent, "evaluate_greedy"),
        (environment.ForecastBackend, "reset"), (agent.MultiPathPpoAgent, "update"),
    )]
    tracer = Tracer()
    try:
        instrument(tracer)
        for owner, attr, original in originals:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr
    assert tracer.spans == []
