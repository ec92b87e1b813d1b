"""One full measurement trial: cut the reference piece, run both iterations.

A trial realizes the piece (C - 6R) with its cutting and placement errors,
counts how many such pieces fit into 6R (first iteration, true value 21),
builds the leftover piece 6R - 21(C - 6R), and counts how many of those fit
into (C - 6R) rounded to the nearest whole piece (second iteration, true
value 5).

The model is written twice. :func:`simulate_trial` and the functions it
calls run one trial at a time and are the readable reference; the ``trial``
command uses them. :func:`trial_block` runs ``BLOCK_TRIALS`` trials at once
from one stream, with the same boundary branches and rounding; campaigns,
ablations and the radius sweep take their blocks from :func:`trial_blocks`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ErrorModel
from .stochastics import (RngState, derive_child, normal_block, sample_normal, sample_uniform,
                          uniform_block)

_RUNAWAY_LIMIT = 1_000_000
_BLOCK = 64
WINDOW_HI = 16  # top bin of the second-count histogram; every count above it is overflow
BLOCK_TRIALS = 256  # trials per trial_block call, all drawn from one stream
_FIRST_STEPS = 24  # copies laid on every row of the first count (21 pass the mark)


class DegenerateConfigError(RuntimeError):
    """Raised by the piece check, the first-iteration guard and the campaign trial limit."""


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
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be finite and > 0")

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
    rng: RngState, cfg: TrialConfig, piece_ref: float, target: float,
    max_pieces: int = _RUNAWAY_LIMIT,
) -> AccumulationResult:
    """Lay copies of a reference piece end to end until the total passes target.

    The first piece is the reference itself; every further piece is cut to
    match (normal error) and juxtaposed against the previous one (uniform
    shrinkage). Stops strictly after the total exceeds the target and also
    reports the total before the crossing piece was laid. Pieces come in blocks
    of 64; with no crossing once ``max_pieces`` are laid it returns ``total <= target``.
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
        if count >= max_pieces:
            return AccumulationResult(count, float(totals[-2]), running)


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


def _lay(
    rng: RngState, ref: np.ndarray, running: np.ndarray, target: np.ndarray, steps: int,
    cut_stdev: float, span: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lay ``steps`` copies of each row's reference piece after its running total.

    Row-wise form of :func:`accumulate_until_exceeds`: every copy is cut to
    match (normal error) and juxtaposed (uniform shrinkage). Returns per row
    the copies laid up to the first total past ``target``, the total before
    that copy and the total after it. A row that does not pass returns
    ``steps`` and its last two totals.
    """
    m = ref.size
    totals = ref[:, None] + cut_stdev * normal_block(rng, m * steps).reshape(m, steps)
    totals += uniform_block(rng, -span, 0.0, m * steps).reshape(m, steps)
    np.cumsum(totals, axis=1, out=totals)
    totals += running[:, None]
    over = totals > target[:, None]
    k = np.where(over.any(axis=1), over.argmax(axis=1), steps - 1)
    rows = np.arange(m)
    before = np.where(k > 0, totals[rows, k - 1], running)
    return k + 1, before, totals[rows, k]


def trial_block(rng: RngState, cfg: TrialConfig) -> tuple[np.ndarray, np.ndarray]:
    """First and second quotients of ``BLOCK_TRIALS`` trials drawn from ``rng``.

    Each row is one :func:`simulate_trial` with the same error terms,
    boundary branches and rounding. Both counts are row-wise first crossings
    of cumulative sums: the first over ``_FIRST_STEPS`` copies, after which
    a row that has not passed 6R keeps laying copies until it does, and the
    second over the copies up to ``WINDOW_HI + 1``, past which it reads
    ``WINDOW_HI + 1``. A piece outside (0, 6R) or a first count past the
    10^6-piece guard raises :class:`DegenerateConfigError`.
    """
    em = cfg.error_model
    gen = rng.generator
    n = BLOCK_TRIALS
    cut_stdev = em.cut_match_stdev_effective()
    span = em.juxtaposition_span_effective()
    piece = np.full(n, cfg.true_circumference - cfg.six_r)
    piece += em.bend_elongation()
    piece += em.circumference_stdev(cfg.radius) * gen.standard_normal(n)
    piece += 3.0 * em.cut_elongation_effective()
    piece += cut_stdev * gen.standard_normal(n)
    bad = (piece <= 0) | (piece >= cfg.six_r)
    if bad.any():
        raise DegenerateConfigError(
            f"circumference piece {piece[bad][0]} outside (0, 6R); check error magnitudes"
        )
    six_r = np.full(n, cfg.six_r)
    laid, before, total = _lay(rng, piece, piece, six_r, _FIRST_STEPS, cut_stdev, span)
    for i in np.flatnonzero(total <= six_r):
        row = slice(i, i + 1)
        while total[i] <= cfg.six_r:
            if laid[i] + 1 >= _RUNAWAY_LIMIT:
                raise DegenerateConfigError(
                    f"accumulation used more than {_RUNAWAY_LIMIT} pieces "
                    f"(piece_ref={piece[i]}, target={cfg.six_r})")
            more, before[row], total[row] = _lay(
                rng, piece[row], total[row], six_r[row], _BLOCK, cut_stdev, span)
            laid[i] += more[0]
    first = laid  # pieces used to pass the mark, less one
    remainder = cfg.six_r - before
    remainder += gen.uniform(0.0, span, n)
    remainder += cut_stdev * gen.standard_normal(n)
    remainder += em.cut_elongation_effective()
    laid, before, total = _lay(rng, remainder, remainder, piece, WINDOW_HI, cut_stdev, span)
    short = total <= piece  # no copy up to WINDOW_HI + 1 passes the mark
    longer = remainder >= piece  # the leftover piece alone passes the mark
    # round_count of (pieces to pass, overshoot, last piece) on every row
    used = np.where(longer, 1, laid + 1)
    last = np.where(longer, remainder, total - before)
    overshoot = np.where(longer, remainder, total) - piece
    rounds_down = overshoot < 0.5 * last if cfg.literal_rounding else overshoot > 0.5 * last
    second = used - rounds_down
    second[short & ~longer] = WINDOW_HI + 1
    second[remainder <= 0] = 0
    return first, second


def trial_blocks(rng: RngState, cfg: TrialConfig, n_trials: int | None = None):
    """:func:`trial_block` of child stream b of ``rng`` for b = 0, 1, ..., cut to
    ``n_trials`` rows in all; with None the blocks never end."""
    for b in itertools.count() if n_trials is None else range(-(-n_trials // BLOCK_TRIALS)):
        first, second = trial_block(derive_child(rng, b), cfg)
        rows = None if n_trials is None else n_trials - b * BLOCK_TRIALS
        yield first[:rows], second[:rows]
