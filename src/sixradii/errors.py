"""Error sources of the wire measurement, with bench-measured defaults.

All lengths are millimeters. Defaults are the values measured for 0.5 mm
copper wire cut with a 20-degree blade: bend shortening of the wire midline
(so the straightened piece runs long), bevel protrusion per cut, the uniform
juxtaposition overlap of beveled ends, cut-to-match scatter, and the
radius-dependent scatter of laying wire in the circular groove.

Four measured quantities are not modelled. The short side of a beveled cut
falls 0.085 mm short, but pieces are laid long side to long side, so only
the 0.095 mm protrusion enters the arithmetic. Cross-section distortion of
the bent wire, a systematic error of the groove itself, and the error of
marking 6R on the wire were assessed and found to have no measurable effect
at the flip threshold (0.0 mm each).

The groove-placement stdev is the fitted line at every radius: the recorded
0.3538 mm is that line's value at radius 350, not a constant for radius 450.

One path applies these terms: the block kernel, ``measurement.trial_block``,
reads the methods below once per block of trials and scales whole arrays of
draws by them. Every command that runs trials goes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Fractional circumference error that flips the second iteration from 5 to 4.
FLIP_ERROR_FRACTION = 3e-5


@dataclass(frozen=True)
class ErrorModel:
    """Every modelled error source, each class behind an on/off toggle.

    Fixed errors are systematic offsets invisible to the measurer; random
    errors scatter from trial to trial.
    """

    wire_diameter: float = 0.5
    bend_elongation_per_mm: float = 0.057
    cut_elongation: float = 0.095
    cut_match_stdev: float = 0.09
    juxtaposition_span: float = 0.18
    circumference_stdev_base: float = 0.05
    circumference_stdev_slope: float = 8.68e-4
    fixed_errors_enabled: bool = True
    random_errors_enabled: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.wire_diameter < math.inf:
            raise ValueError("wire_diameter must be finite and > 0")
        for name in (
            "bend_elongation_per_mm",
            "cut_elongation",
            "cut_match_stdev",
            "juxtaposition_span",
            "circumference_stdev_base",
            "circumference_stdev_slope",
        ):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")

    def bend_elongation(self) -> float:
        """Straightened-length excess of a wire cut to fit the full circle.

        The midline shortens when bent, so a wire cut to circumference length
        while in the groove is longer once straightened; the term is added to
        the piece. Proportional to wire diameter (0.057 mm per mm).
        """
        if not self.fixed_errors_enabled:
            return 0.0
        return self.bend_elongation_per_mm * self.wire_diameter

    def cut_elongation_effective(self) -> float:
        """Long-side bevel protrusion per cut, or 0 with fixed errors off."""
        return self.cut_elongation if self.fixed_errors_enabled else 0.0

    def cut_match_stdev_effective(self) -> float:
        """Stdev of cutting one wire to match another, or 0 with random errors off."""
        return self.cut_match_stdev if self.random_errors_enabled else 0.0

    def juxtaposition_span_effective(self) -> float:
        """Width of the uniform juxtaposition error, or 0 with random errors off."""
        return self.juxtaposition_span if self.random_errors_enabled else 0.0

    def circumference_stdev(self, radius: float) -> float:
        """Stdev of laying the wire into the circular groove at this radius."""
        if radius <= 0:
            raise ValueError("radius must be > 0")
        if not self.random_errors_enabled:
            return 0.0
        return self.circumference_stdev_base + self.circumference_stdev_slope * radius


def flip_threshold(radius: float) -> float:
    """Circumference error, in mm, that flips the second iteration from 5 to 4.

    0.003% of the circumference: about 38 microns on a 200 mm radius circle.
    Error sources well below this are ignorable.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    return FLIP_ERROR_FRACTION * 2.0 * math.pi * radius
