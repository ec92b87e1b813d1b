"""The benchmark's tracer still attaches to the program.

``bench/tracer.py`` patches program functions by name. Loading it from its
path and installing it here makes a renamed or deleted name fail the suite,
not only a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from sixradii import cli, histogram, measurement, stochastics

_TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores(capsys):
    tracer_module = _load_tracer()
    originals = (measurement.simulate_trial, measurement.accumulate_until_exceeds,
                 histogram.stopping_met, stochastics.normal_block, cli.simulate_trial)
    tracer = tracer_module.Tracer()
    restore = tracer_module.install(tracer)
    try:
        assert measurement.simulate_trial is not originals[0]
        assert cli.simulate_trial.__wrapped__ is originals[0]
        assert cli.main(["trial", "--seed", "1"]) == 0
    finally:
        restore()
    capsys.readouterr()
    assert (measurement.simulate_trial, measurement.accumulate_until_exceeds,
            histogram.stopping_met, stochastics.normal_block, cli.simulate_trial) == originals
    counters = tracer.counters()
    assert counters["calls.measurement.simulate_trial"] == 1
    assert counters["trials"] == 1
