"""The benchmark's layer probe still runs against the program.

``bench/layers.py`` ``probe`` makes one small traced call into every layer,
reaching the parameter objects and kernels by module and name. Running it
here makes a moved or renamed name fail the suite, not only a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_probe_traces_every_kernel_layer(monkeypatch, tmp_path):
    # the probe imports its siblings, tracer and cfsweep, by module name
    monkeypatch.syspath_prepend(str(_BENCH))
    spec = importlib.util.spec_from_file_location("bench_layers", _BENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.probe(3, tmp_path)
    for span in ("histogram.run_campaign", "stochastics.reciprocal_peak_curve",
                 "contfrac.cf_expand"):
        assert tracer.calls(span) > 0, span
