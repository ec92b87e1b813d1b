"""Simulator of a wire-and-groove circle measurement.

A soft wire is cut to the circumference C of a circle, compared against a
straight length of six radii (6R), and the remainders are compared again.
The two iteration counts (21 and 5) are the continued-fraction quotients of
pi/3, so the method measures the rational 111/106. This package simulates
the procedure with bench-measured error constants, runs the histogram
stopping protocol that selects the most common outcome, and provides the
experiment battery and CLI around it.
"""

from .contfrac import CFExpansion, cf_expand, convergent, euclid_quotients, pi_estimate
from .errors import ErrorModel, flip_threshold
from .histogram import (
    CampaignResult,
    Histogram,
    StoppingCriteria,
    run_campaign,
    stopping_met,
)
from .measurement import (
    DegenerateConfigError,
    TrialConfig,
    TrialResult,
    accumulate_until_exceeds,
    simulate_trial,
)
from .stochastics import (
    ReciprocalStudyConfig,
    RngState,
    derive_child,
    reciprocal_peak_curve,
    rng_new,
)

__version__ = "0.1.0"

__all__ = [
    "CFExpansion",
    "CampaignResult",
    "DegenerateConfigError",
    "ErrorModel",
    "Histogram",
    "ReciprocalStudyConfig",
    "RngState",
    "StoppingCriteria",
    "TrialConfig",
    "TrialResult",
    "accumulate_until_exceeds",
    "cf_expand",
    "convergent",
    "derive_child",
    "euclid_quotients",
    "flip_threshold",
    "pi_estimate",
    "reciprocal_peak_curve",
    "rng_new",
    "run_campaign",
    "simulate_trial",
    "stopping_met",
]
