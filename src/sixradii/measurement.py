"""One full measurement trial: cut the reference piece, run both iterations.

A trial realizes the piece (C - 6R) with its cutting and placement errors,
counts how many such pieces fit into 6R (first iteration, true value 21),
builds the leftover piece 6R - 21(C - 6R), and counts how many of those fit
into (C - 6R) rounded to the nearest whole piece (second iteration, true
value 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ErrorModel
from .stochastics import RngState, normal_block, sample_normal, sample_uniform, uniform_block

_RUNAWAY_LIMIT = 1_000_000
_BLOCK = 64


class DegenerateConfigError(RuntimeError):
    """An accumulation failed to terminate within the runaway guard."""


@dataclass(frozen=True)
class TrialConfig:
    """Geometry and error model for one measurement setup.

    ``literal_rounding`` switches the second-iteration rounding to the
    as-written branch kept for study; the default is nearest-integer
    rounding, which is the only branch consistent with the fixed-only
    ablation outcome.
    """

    radius: float = 450.0
    error_model: ErrorModel = field(default_factory=ErrorModel)
    literal_rounding: bool = False

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("radius must be > 0")

    @property
    def six_r(self) -> float:
        return 6.0 * self.radius

    @property
    def true_circumference(self) -> float:
        return 2.0 * math.pi * self.radius


@dataclass(frozen=True)
class TrialResult:
    first_quotient: int
    second_quotient: int
    c_minus_six_r: float
    remainder_piece: float
    discarded: bool


class AccumulationResult(NamedTuple):
    pieces_used: int
    total_before_last: float
    total: float


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


def accumulate_until_exceeds(
    rng: RngState, cfg: TrialConfig, piece_ref: float, target: float
) -> AccumulationResult:
    """Lay copies of a reference piece end to end until the total passes target.

    The first piece is the reference itself; every further piece is cut to
    match (normal error) and juxtaposed against the previous one (uniform
    shrinkage). Stops strictly after the total exceeds the target and also
    reports the total before the crossing piece was laid.
    """
    if piece_ref <= 0:
        raise ValueError("piece_ref must be > 0")
    if target <= piece_ref:
        raise ValueError("target must be greater than piece_ref")
    em = cfg.error_model
    cut_stdev = em.cut_match_stdev_effective()
    span = em.juxtaposition_span_effective()
    running = piece_ref
    count = 1
    while True:
        gauss = normal_block(rng, _BLOCK)
        juxtaposition = uniform_block(rng, -span, 0.0, _BLOCK)
        totals = running + np.cumsum(piece_ref + cut_stdev * gauss + juxtaposition)
        over = np.nonzero(totals > target)[0]
        if over.size:
            k = int(over[0])
            before = float(totals[k - 1]) if k > 0 else running
            return AccumulationResult(count + k + 1, before, float(totals[k]))
        running = float(totals[-1])
        count += _BLOCK
        if count > _RUNAWAY_LIMIT:
            raise DegenerateConfigError(
                f"accumulation used more than {_RUNAWAY_LIMIT} pieces "
                f"(piece_ref={piece_ref}, target={target})"
            )


def first_iteration(
    rng: RngState, cfg: TrialConfig, c_minus_six_r: float
) -> tuple[int, float]:
    """Count (C - 6R) pieces against 6R and cut the leftover reference piece.

    The quotient is one less than the number of pieces needed to pass the
    mark. The leftover piece is the gap left by the counted pieces, plus the
    juxtaposition gap opened when cutting at the mark, cut-to-match noise,
    and one bevel protrusion.
    """
    if c_minus_six_r <= 0:
        raise ValueError("c_minus_six_r must be > 0")
    em = cfg.error_model
    acc = accumulate_until_exceeds(rng, cfg, c_minus_six_r, cfg.six_r)
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
    """Count leftover-piece copies against the (C - 6R) mark, rounded."""
    if c_minus_six_r <= 0:
        raise ValueError("c_minus_six_r must be > 0")
    if remainder_piece <= 0:
        raise ValueError("remainder_piece must be > 0")
    acc = accumulate_until_exceeds(rng, cfg, remainder_piece, c_minus_six_r)
    overshoot = acc.total - c_minus_six_r
    last_piece = acc.total - acc.total_before_last
    return round_count(acc.pieces_used, overshoot, last_piece, literal=cfg.literal_rounding)


def simulate_trial(rng: RngState, cfg: TrialConfig) -> TrialResult:
    """Run one complete measurement; both iterations always produce a value.

    A trial whose first quotient is not 21 is flagged discarded (it never
    enters a histogram) but its second iteration is still evaluated for
    diagnostics. Boundary trials can leave a leftover piece longer than the
    (C - 6R) mark (the count is then read from the one piece that already
    passes it), not positive at all (recorded as 0), or so short that its own
    juxtaposition losses outweigh it and the accumulation cannot reach the
    mark; that reads as an enormous count, recorded as the runaway limit,
    which lands in histogram overflow.
    """
    c_piece = sample_circumference_piece(rng, cfg)
    quotient, remainder = first_iteration(rng, cfg, c_piece)
    if remainder <= 0:
        second = 0
    elif remainder >= c_piece:
        second = round_count(1, remainder - c_piece, remainder, literal=cfg.literal_rounding)
    else:
        try:
            second = second_iteration(rng, cfg, c_piece, remainder)
        except DegenerateConfigError:
            second = _RUNAWAY_LIMIT
    return TrialResult(
        first_quotient=quotient,
        second_quotient=second,
        c_minus_six_r=c_piece,
        remainder_piece=remainder,
        discarded=quotient != 21,
    )
