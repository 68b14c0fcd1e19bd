"""The traced benchmark wraps package functions by name; a renamed or
removed name must fail here rather than when the benchmark runs."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    targets = spans.patch_targets()
    assert targets
    for module, attr, span_name, _ in targets:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr} (span {span_name}) does not resolve"
