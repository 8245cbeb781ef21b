"""Every call site the benchmark's per-layer tracing wraps must still exist.

``perfbench/layers.py`` wraps ``(module, attribute)`` pairs by name; a
refactor that drops one would otherwise only surface when a traced benchmark
run fails.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_instrument_wraps_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    sites = [site for _, targets in layers.TARGETS.values() for site in targets]
    originals = {
        site: getattr(importlib.import_module(site[0]), site[1]) for site in sites
    }
    undo = layers.instrument(spans.Recorder())
    try:
        for module_name, attr in sites:
            wrapped = getattr(importlib.import_module(module_name), attr)
            assert wrapped.__wrapped__ is originals[(module_name, attr)]
    finally:
        undo()
    for (module_name, attr), original in originals.items():
        assert getattr(importlib.import_module(module_name), attr) is original
