"""Per-layer metrics of a traced run, and the probe that covers unused layers.

Times per call come from the workload's own traced calls. A workload that
never calls a layer (``svgplot`` in all four, ``contfrac`` outside
``cf_roundtrip``, ...) gets that layer's time per call from :func:`probe`, a
small fixed set of calls into every layer, so each traced run reports a
measured time for every layer. Counts, and fractions of counts, come from
the workload's first command alone and are exact.
"""

from __future__ import annotations

from pathlib import Path

# Computed bytes moved per sample by the chunk loop of reciprocal_peak_curve:
# two normal draws written (16), the ratio (24), offset, scale and rint passes
# (48), isfinite/abs/compare/and masks (37), the masked gather, cast and shift
# (49), bincount (8), the masked deviation sum (41) and count_nonzero (1),
# with every sample kept. Reads and writes of 8-byte floats, 1-byte masks.
RECIP_BYTES_PER_SAMPLE = 224

# name -> unit, in report order
UNITS = {
    "stochastics.derive_child_us": "us",
    "stochastics.derive_child_calls": "count",
    "stochastics.recip_ns_per_sample": "ns",
    "stochastics.recip_bytes_per_sample": "B",
    "stochastics.recip_bw_frac": "frac",
    "measurement.trial_us": "us",
    "measurement.accumulate_us": "us",
    "measurement.accumulate_calls": "count",
    "measurement.trials": "count",
    "measurement.discards": "count",
    "measurement.measurements": "count",
    "measurement.past_bin16": "count",
    "measurement.pieces_laid": "count",
    "measurement.pieces_drawn": "count",
    "measurement.pieces_laid_per_drawn": "frac",
    "measurement.kept_frac": "frac",
    "measurement.overflow_frac": "frac",
    "measurement.runaway_trials": "count",
    "measurement.runaway_time_frac": "frac",
    "histogram.stopping_met_us": "us",
    "histogram.stopping_calls": "count",
    "histogram.campaign_ms": "ms",
    "histogram.measurements_per_campaign": "count",
    "experiments.fanout_eff": "frac",
    "experiments.cell_ms": "ms",
    "contfrac.cf_expand_us": "us",
    "contfrac.convergent_us": "us",
    "contfrac.euclid_us": "us",
    "contfrac.division_steps": "count",
    "config.resolve_ms": "ms",
    "reports.write_ms": "ms",
    "svgplot.render_ms": "ms",
    "trace.overhead_frac": "frac",
}


def probe(seed: int, out_dir: Path):
    """Trace one small call into every layer; returns the probe's tracer."""
    from tracer import Tracer, install

    import cfsweep

    tracer = Tracer()
    restore = install(tracer)
    try:
        from sixradii import (config, experiments, histogram, measurement, reports,
                              stochastics, svgplot)

        root = stochastics.rng_new(seed)
        cfg = measurement.TrialConfig()
        campaign = histogram.run_campaign(root, cfg, histogram.StoppingCriteria(),
                                          max_measurements=200)
        experiments.fixed_budget_success(cfg, 25, 4, seed)
        stochastics.reciprocal_peak_curve(
            stochastics.ReciprocalStudyConfig(denominator_stdevs=(0.1,),
                                              samples_per_point=1_000_000), root)
        cfsweep.sweep(cfsweep.reduced_pairs(40, seed))
        for i in range(20):
            config.resolve({}, {"seed": seed + i})
            reports.write_csv(out_dir / "probe.csv", ("bin", "count"),
                              [(b, i) for b in range(1, 17)])
        for _ in range(5):
            svgplot.render_histogram_svg(campaign.histogram, out_dir / "probe.svg")
    finally:
        restore()
    return tracer


def metrics(tracer, probe_tracer, counters: dict, copy_gbps: float,
            fanout_eff: float, overhead_frac: float) -> dict:
    """Every per-layer metric, in the order of ``UNITS``."""
    def source(span: str):
        return tracer if tracer.calls(span) else probe_tracer

    def per_call_us(span: str) -> float:
        return source(span).self_us(span)

    def per_call_ms(span: str) -> float:
        return source(span).total_ms(span)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    recip = source("stochastics.reciprocal_peak_curve")
    recip_ns = ratio(recip.self_us("stochastics.reciprocal_peak_curve") * 1e3
                     * recip.calls("stochastics.reciprocal_peak_curve"),
                     recip.local_count("recip_samples"))
    c = counters
    values = {
        "stochastics.derive_child_us": per_call_us("stochastics.derive_child"),
        "stochastics.derive_child_calls": c["calls.stochastics.derive_child"],
        "stochastics.recip_ns_per_sample": recip_ns,
        "stochastics.recip_bytes_per_sample": RECIP_BYTES_PER_SAMPLE,
        "stochastics.recip_bw_frac": ratio(RECIP_BYTES_PER_SAMPLE / recip_ns, copy_gbps),
        "measurement.trial_us": per_call_us("measurement.simulate_trial"),
        "measurement.accumulate_us": per_call_us("measurement.accumulate"),
        "measurement.accumulate_calls": c["calls.measurement.accumulate"],
        "measurement.trials": c["trials"],
        "measurement.discards": c["discards"],
        "measurement.measurements": c["measurements"],
        "measurement.past_bin16": c["past_bin16"],
        "measurement.pieces_laid": c["pieces_laid"],
        "measurement.pieces_drawn": c["pieces_drawn"],
        "measurement.pieces_laid_per_drawn": ratio(c["pieces_laid"], c["pieces_drawn"]),
        "measurement.kept_frac": ratio(c["measurements"], c["trials"]),
        "measurement.overflow_frac": ratio(c["past_bin16"], c["measurements"]),
        "measurement.runaway_trials": c["runaway_trials"],
        "measurement.runaway_time_frac": ratio(
            tracer.runaway_trial_ns, tracer.total_s("measurement.simulate_trial") * 1e9),
        "histogram.stopping_met_us": per_call_us("histogram.stopping_met"),
        "histogram.stopping_calls": c["calls.histogram.stopping_met"],
        "histogram.campaign_ms": per_call_ms("histogram.run_campaign"),
        "histogram.measurements_per_campaign": ratio(
            c["campaign_measurements"], c["calls.histogram.run_campaign"]),
        "experiments.fanout_eff": fanout_eff,
        "experiments.cell_ms": per_call_ms("experiments.cell"),
        "contfrac.cf_expand_us": per_call_us("contfrac.cf_expand"),
        "contfrac.convergent_us": per_call_us("contfrac.convergent"),
        "contfrac.euclid_us": per_call_us("contfrac.euclid_quotients"),
        "contfrac.division_steps": c["division_steps"],
        "config.resolve_ms": per_call_ms("config.resolve"),
        "reports.write_ms": per_call_ms("reports.write"),
        "svgplot.render_ms": per_call_ms("svgplot.render"),
        "trace.overhead_frac": overhead_frac,
    }
    assert list(values) == list(UNITS)
    return values
