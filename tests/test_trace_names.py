"""The names that perfbench/tracing.py wraps and reports still exist in the program.

The tracer records a function it cannot find as absent and leaves its
metrics out of the result, so a rename would silently drop per-layer metrics
from a benchmark run. These tests load the tracer by path, unchanged.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from treeid import clustering
from treeid.cli import run

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_functions_resolve(tracing):
    for module_name, attr, span in tracing.LAYER_FUNCTIONS:
        owner = importlib.import_module(module_name)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, name, None)), span
        if classes:  # the tracer rebinds a dotted name as a classmethod
            assert isinstance(inspect.getattr_static(owner, name), classmethod), span


def test_distance_counter_exists():
    # perfbench/run.py reads clustering.distance_evals from it, outside LAYER_FUNCTIONS
    assert callable(clustering.distance_eval_count)


def test_traced_commands_are_subcommands(tracing, capsys):
    for command in tracing.CLI_COMMANDS:
        assert run([command, "--help"]) == 0, command
    assert run(["no-such-command", "--help"]) == 1  # the check can fail
    capsys.readouterr()
