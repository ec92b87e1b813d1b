"""Simulator of a wire-and-groove circle measurement.

A soft wire is cut to the circumference C of a circle, compared against a
straight length of six radii (6R), and the remainders are compared again.
The two iteration counts (21 and 5) are the continued-fraction quotients of
pi/3, so the method measures the rational 111/106. This package simulates
the procedure with bench-measured error constants, runs the histogram
stopping protocol that selects the most common outcome, and provides the
experiment battery and CLI around it.

Each public name is imported from its submodule on first use (PEP 562), so
``import sixradii.contfrac`` loads no numpy, and the exact continued-fraction
path loads no ``dataclasses`` either.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SUBMODULE = {
    "CFExpansion": "contfrac",
    "CampaignResult": "histogram",
    "DegenerateConfigError": "measurement",
    "ErrorModel": "config",
    "Histogram": "histogram",
    "ReciprocalStudyConfig": "stochastics",
    "RngState": "stochastics",
    "StoppingCriteria": "config",
    "TrialConfig": "config",
    "TrialResult": "measurement",
    "accumulate_until_exceeds": "measurement",
    "cf_expand": "contfrac",
    "convergent": "contfrac",
    "derive_child": "stochastics",
    "euclid_quotients": "contfrac",
    "flip_threshold": "config",
    "pi_estimate": "contfrac",
    "reciprocal_peak_curve": "stochastics",
    "rng_new": "stochastics",
    "run_campaign": "histogram",
    "simulate_trial": "measurement",
    "stopping_met": "histogram",
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    # Not cached in the package namespace, so a name always resolves to what
    # its submodule holds now.
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{submodule}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
