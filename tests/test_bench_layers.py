"""The benchmark's traced layers must name functions that exist.

``bench/spans.py`` wraps each ``(module, function)`` of its ``LAYERS`` by
name when a traced run starts, so a deleted or renamed function would only
fail there.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import compbss as cb

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for layer, module_name, attrs, _ in spans.LAYERS:
        module = importlib.import_module(module_name)
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{layer}: {module_name}.{attr}"


def test_traced_arguments_keep_their_positions():
    """``bench/spans.py`` counters read these arguments by position."""
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(cb.scheduler.schedule)[1] == "rx_w"
    assert names(cb.geometry.link_geometry)[:2] == ["layout", "points"]
    assert names(cb.bss.heuristic_select)[4] == "patterns"
