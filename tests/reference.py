"""Slow, readable references for the program's fast paths.

The program runs one model: the block kernel ``measurement.trial_block`` and
the stopping rule over stacks of histograms, ``histogram._passes``. The
functions here are the same model written the slow, readable way: one
normal or uniform draw at a time, one accumulation at a time, one stopping
condition at a time and one recorded value at a time. The continued
fractions, which the program runs as one integer division loop, are here
in ``Fraction`` arithmetic as the textbook defines them. Equivalence tests
check the program against them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from sixradii.config import StoppingCriteria, TrialConfig
from sixradii.histogram import Histogram
from sixradii.measurement import (
    _RUNAWAY_LIMIT,
    WINDOW_HI,
    DegenerateConfigError,
    TrialResult,
    accumulate_until_exceeds,
)
from sixradii.stochastics import RngState


def sample_normal(rng: RngState, mean: float, stdev: float) -> float:
    """One draw from N(mean, stdev^2); stdev == 0 returns mean exactly."""
    if stdev < 0:
        raise ValueError("stdev must be >= 0")
    return float(rng.generator.normal(mean, stdev))


def sample_uniform(rng: RngState, lo: float, hi: float) -> float:
    """One draw from U[lo, hi]; lo == hi returns lo exactly."""
    if lo > hi:
        raise ValueError("lo must be <= hi")
    return float(rng.generator.uniform(lo, hi))


def sample_circumference_piece(rng: RngState, cfg: TrialConfig) -> float:
    """Realized length of the (C - 6R) piece cut at the six-radius mark.

    Exact geometry plus bend elongation, groove-placement noise, three cut
    protrusions (two ends of the circumference wire, one cut at the mark),
    and cut-to-match noise, with the class toggles applied. A piece outside
    (0, 6R) cannot be counted against the mark and raises
    :class:`DegenerateConfigError`.
    """
    em = cfg.error_model
    piece = cfg.true_circumference - cfg.six_r
    piece += em.bend_elongation()
    piece += sample_normal(rng, 0.0, em.circumference_stdev(cfg.radius))
    piece += 3.0 * em.cut_elongation_effective()
    piece += sample_normal(rng, 0.0, em.cut_match_stdev_effective())
    if piece <= 0 or piece >= cfg.six_r:
        raise DegenerateConfigError(
            f"circumference piece {piece} outside (0, 6R); check error magnitudes"
        )
    return piece


def first_iteration(
    rng: RngState, cfg: TrialConfig, c_minus_six_r: float
) -> tuple[int, float]:
    """Count (C - 6R) pieces against 6R and cut the leftover reference piece.

    The quotient is one less than the number of pieces needed to pass the
    mark. The leftover piece is the gap left by the counted pieces, plus the
    juxtaposition gap opened when cutting at the mark, cut-to-match noise,
    and one bevel protrusion. A mark never passed raises DegenerateConfigError.
    """
    if c_minus_six_r <= 0:
        raise ValueError("c_minus_six_r must be > 0")
    em = cfg.error_model
    acc = accumulate_until_exceeds(rng, cfg, c_minus_six_r, cfg.six_r, _RUNAWAY_LIMIT)
    if acc.total <= cfg.six_r:
        raise DegenerateConfigError(f"accumulation used more than {_RUNAWAY_LIMIT} pieces "
                                    f"(piece_ref={c_minus_six_r}, target={cfg.six_r})")
    quotient = acc.pieces_used - 1
    remainder = cfg.six_r - acc.total_before_last
    remainder += sample_uniform(rng, 0.0, em.juxtaposition_span_effective())
    remainder += sample_normal(rng, 0.0, em.cut_match_stdev_effective())
    remainder += em.cut_elongation_effective()
    return quotient, remainder


def round_count(
    pieces_to_pass: int, overshoot: float, last_piece_len: float, literal: bool = False
) -> int:
    """Round the accumulated count to the nearest whole piece.

    If more than half of the last piece sticks out past the mark, the mark
    sits in the first half of that piece, so the count rounds down
    (pieces_to_pass - 1); otherwise it rounds up to pieces_to_pass. A mark at
    exactly half a piece rounds up. This equals nearest-integer rounding of
    the implied length ratio with ties up.

    ``literal=True`` selects the inverted branch (round down when *less* than
    half sticks out), kept only to demonstrate that it disagrees with the
    fixed-only ablation.
    """
    if overshoot < 0:
        raise ValueError("overshoot must be >= 0")
    if last_piece_len <= 0:
        raise ValueError("last_piece_len must be > 0")
    half = 0.5 * last_piece_len
    if literal:
        return pieces_to_pass - 1 if overshoot < half else pieces_to_pass
    return pieces_to_pass - 1 if overshoot > half else pieces_to_pass


def second_iteration(
    rng: RngState, cfg: TrialConfig, c_minus_six_r: float, remainder_piece: float
) -> int:
    """Count leftover-piece copies against the (C - 6R) mark, rounded.

    Counts up to ``WINDOW_HI`` are exact; any larger count, or a mark never
    passed, stops early and reads ``WINDOW_HI + 1``.
    """
    if c_minus_six_r <= 0:
        raise ValueError("c_minus_six_r must be > 0")
    if remainder_piece <= 0:
        raise ValueError("remainder_piece must be > 0")
    past_window = WINDOW_HI + 1
    acc = accumulate_until_exceeds(rng, cfg, remainder_piece, c_minus_six_r, past_window)
    if acc.total <= c_minus_six_r or acc.pieces_used > past_window:
        return past_window
    overshoot = acc.total - c_minus_six_r
    last_piece = acc.total - acc.total_before_last
    return round_count(acc.pieces_used, overshoot, last_piece, literal=cfg.literal_rounding)


def simulate_trial(rng: RngState, cfg: TrialConfig) -> TrialResult:
    """Run one complete measurement; both iterations always produce a value.

    A trial whose first quotient is not 21 is flagged discarded (it never
    enters a histogram) but its second iteration is still evaluated for
    diagnostics. Boundary trials can leave a leftover piece longer than the
    (C - 6R) mark (the count is then read from the one piece that already
    passes it), not positive at all (recorded as 0), or so short that its
    own juxtaposition losses outweigh it, which reads as a count past the
    window, ``WINDOW_HI + 1``. Only a piece outside (0, 6R) or a first
    iteration that never passes the mark raises DegenerateConfigError.
    """
    c_piece = sample_circumference_piece(rng, cfg)
    quotient, remainder = first_iteration(rng, cfg, c_piece)
    if remainder <= 0:
        second = 0
    elif remainder >= c_piece:
        second = round_count(1, remainder - c_piece, remainder, literal=cfg.literal_rounding)
    else:
        second = second_iteration(rng, cfg, c_piece, remainder)
    return TrialResult(
        first_quotient=quotient,
        second_quotient=second,
        c_minus_six_r=c_piece,
        remainder_piece=remainder,
        discarded=quotient != 21,
    )


def stopping_met(hist: Histogram, criteria: StoppingCriteria) -> bool:
    """True when the histogram shows one clean, well-supported peak.

    A bin missing beyond the window edge counts as zero for the neighbor
    comparison. All above-threshold bins must form a single consecutive group
    around the peak; an above-threshold island elsewhere means the peak is
    not yet uniquely identifiable. Flank counts must strictly decrease away
    from the peak within the group.
    """
    counts = hist.counts
    if sum(counts) == 0:
        return False
    peak_index = hist.peak_bin() - hist.lo
    peak_count = counts[peak_index]
    if peak_count < criteria.min_peak_count:
        return False
    below = counts[peak_index - 1] if peak_index > 0 else 0
    above = counts[peak_index + 1] if peak_index + 1 < len(counts) else 0
    if peak_count < criteria.peak_dominance * below:
        return False
    if peak_count < criteria.peak_dominance * above:
        return False
    threshold = criteria.bin_threshold_fraction * peak_count
    group_lo = peak_index
    while group_lo - 1 >= 0 and counts[group_lo - 1] > threshold:
        group_lo -= 1
    group_hi = peak_index
    while group_hi + 1 < len(counts) and counts[group_hi + 1] > threshold:
        group_hi += 1
    for i, c in enumerate(counts):
        if c > threshold and not group_lo <= i <= group_hi:
            return False
    if group_hi - group_lo + 1 < criteria.min_consecutive_bins:
        return False
    for i in range(group_lo, peak_index):
        if counts[i] >= counts[i + 1]:
            return False
    for i in range(peak_index + 1, group_hi + 1):
        if counts[i] >= counts[i - 1]:
            return False
    return True


def record(hist: Histogram, value: int) -> None:
    """Record one value: below ``lo`` is underflow, above ``hi`` overflow."""
    if value < hist.lo:
        hist.underflow += 1
    elif value > hist.hi:
        hist.overflow += 1
    else:
        hist.counts[value - hist.lo] += 1


# A double x resolves a real only to about x / 2**53, and a convergent with
# denominator k lies within 1 / k**2 of it.
FLOAT_RESOLUTION = 2**53


def cf_expand(x, max_terms: int | None = None, tolerance=0) -> tuple[list[int], bool]:
    """Continued fraction of x > 0 as (quotients, exact), in Fractions only.

    a = floor(x), then x = 1 / (x - a), until x - a is zero (exact), below
    ``tolerance``, or ``max_terms`` quotients are taken. A double also stops,
    inexact, before the first quotient whose convergent denominator k has
    k**2 * x > 2**53, once a nonzero quotient is kept.
    """
    resolve = isinstance(x, float)
    x = value = Fraction(x)
    quotients = []
    while max_terms is None or len(quotients) < max_terms:
        a = math.floor(x)
        if (resolve and any(quotients)
                and convergent([*quotients, a]).denominator ** 2 * value > FLOAT_RESOLUTION):
            break
        quotients.append(a)
        if x == a:
            return quotients, True
        if x - a < tolerance:
            break
        x = 1 / (x - a)
    return quotients, False


def euclid_quotients(a, b, max_terms: int | None = None, tolerance=0) -> list[int]:
    """Quotients of dividing length a by length b with remainder, in Fractions.

    Each step measures b off a as often as it fits, then divides b by the
    leftover, until the leftover is zero or below ``tolerance`` (in the units
    of a and b) or ``max_terms`` quotients are taken.
    """
    a, b = Fraction(a), Fraction(b)
    quotients = []
    while max_terms is None or len(quotients) < max_terms:
        q = a // b
        quotients.append(q)
        r = a - q * b
        if r == 0 or r < tolerance:
            break
        a, b = b, r
    return quotients


def convergent(quotients: list[int]) -> Fraction:
    """[a0; a1, ..., an] folded from the last quotient back to the first."""
    value = Fraction(quotients[-1])
    for a in reversed(quotients[:-1]):
        value = a + 1 / value
    return value
