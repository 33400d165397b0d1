"""The names and argument positions perfbench's tracer reads from the package.

perfbench/tracing.py wraps package functions by name and reads some of
their arguments by position; a refactor that renames or reorders them
would otherwise surface only when the benchmark runs.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

# missing_names looks the wrapped names up in sys.modules; importing the
# runner imports every module it wraps.
import moprompt.runner  # noqa: F401
from moprompt.envs import rollout
from moprompt.geometry import hypervolume
from moprompt.mgda import min_norm_point

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    # Loaded by path, not imported: perfbench is not a package. The module
    # imports only sys, time, collections and numpy.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    assert _load_tracing().missing_names() == []


def _parameters(fn) -> list:
    return list(inspect.signature(fn).parameters)


def test_traced_arguments_sit_where_the_tracer_reads_them():
    assert _parameters(rollout)[0] == "env"
    assert _parameters(rollout)[3] == "k_hat"
    assert _parameters(hypervolume)[:2] == ["points", "ref"]
    assert _parameters(min_norm_point)[0] == "gradients"
