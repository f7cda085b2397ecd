"""The benchmark's per-layer metrics read spans of bindings that exist.

``bench/layers.py`` names what its traced runs wrap: public functions of
the rotorkit modules, a few class attributes and scipy bindings, and the
CLI's runner table.  A metric whose spans no binding records would read 0
on working code, and a binding the program no longer has would fail the
traced run.  This test plans the bindings as the harness does, changing
nothing under ``bench/``, and checks both directions.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import layers  # noqa: E402  (bench/ is not a package)


@pytest.fixture(scope="module")
def planned():
    return layers.plan(layers.modules())


def test_every_planned_binding_exists(planned):
    for container, key, name in planned:
        has = key in container if isinstance(container, dict) else hasattr(
            container, key)
        assert has, f"{name}: {container!r} has no {key!r}"


def test_every_metric_and_hook_reads_a_planned_span(planned):
    names = {name for _, _, name in planned}
    for metric in layers.METRICS:
        assert any(layers.matches(n, metric["spans"]) for n in names), (
            f"{metric['name']} reads {metric['spans']}, which no binding records")
    for hook in layers.Notes().hooks():
        assert hook in names, f"hook {hook} names no planned span"
