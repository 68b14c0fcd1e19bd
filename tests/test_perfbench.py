"""The benchmark's own code run against the package: the traced benchmark
wraps package functions by name, and checks the files each op writes; a
renamed or removed name, or an output the checks reject, must fail here
rather than when the benchmark runs."""

import importlib.util
import sys
from pathlib import Path

from scgarch import cli, io
from scgarch.model import TimeSeriesPanel

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    spans = load("spans", monkeypatch)
    targets = spans.patch_targets()
    assert targets
    for module, attr, span_name, _ in targets:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr} (span {span_name}) does not resolve"


def test_fit_outputs_pass_the_benchmark_checks(tmp_path, monkeypatch):
    outputs = load("outputs", monkeypatch)
    spans = load("spans", monkeypatch)
    generate = load("generate", monkeypatch)
    n, p = 120, 4
    values, _ = generate.garch_panel(n, p, seed=0)
    panel = tmp_path / "panel.csv"
    io.write_panel(panel, TimeSeriesPanel(values))

    def fit(ordering):
        out = tmp_path / ordering
        assert cli.main(["fit", str(panel), "--ordering", ordering,
                         "--out-dir", str(out)]) == 0
        outputs.check_fit_outputs(out, n, p)

    fit("fixed")
    fit("bic-exhaustive")
    # Traced as the benchmark traces an op: the search fits each of the
    # p * 2**(p-1) = 32 (series, set) pairs once, and nothing after it.
    recorder = spans.Recorder()
    recorder.op = 0
    with spans.Patches(recorder):
        fit("bic-exhaustive")
    assert [s.name for s in recorder.spans].count("garch.garch_fit") == 32
    assert spans.per_layer_metrics(recorder, {0: 1.0})["garch.fit_calls"] == 32
