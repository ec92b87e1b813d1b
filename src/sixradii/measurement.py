"""One full measurement trial: cut the reference piece, run both iterations.

A trial realizes the piece (C - 6R) with its cutting and placement errors,
counts how many such pieces fit into 6R (first iteration, true value 21),
builds the leftover piece 6R - 21(C - 6R), and counts how many of those fit
into (C - 6R) rounded to the nearest whole piece (second iteration, true
value 5).

The model is written once, as a block kernel: :func:`trial_block` runs
``BLOCK_TRIALS`` trials at once from one stream. Campaigns, ablations and the
radius sweep take their blocks from :func:`trial_blocks`, and the ``trial``
command prints its first row, :func:`simulate_trial`. The one-trial-at-a-time
reference that the kernel is tested against lives with the tests.

numpy is imported by the kernel functions on their first call, so importing
this module, as the CLI does for every command, loads no numpy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .config import TrialConfig
from .stochastics import RngState, derive_child, normal_block

if TYPE_CHECKING:
    import numpy as np

_RUNAWAY_LIMIT = 1_000_000
_BLOCK = 64
WINDOW_HI = 16  # top bin of the second-count histogram; every count above it is overflow
BLOCK_TRIALS = 256  # trials per trial_block call, all drawn from one stream
_FIRST_STEPS = 24  # copies laid on every row of the first count (21 pass the mark)


class DegenerateConfigError(RuntimeError):
    """Raised by the piece check, the first-iteration guard and the campaign trial limit."""


@dataclass(frozen=True)
class TrialResult:
    first_quotient: int
    second_quotient: int
    c_minus_six_r: float
    remainder_piece: float
    discarded: bool


class TrialBlock(NamedTuple):
    """One row per trial: both quotients, the (C - 6R) piece and the leftover piece."""

    first: np.ndarray
    second: np.ndarray
    piece: np.ndarray
    remainder: np.ndarray

    @property
    def kept(self) -> np.ndarray:
        """Rows whose first count is the true 21; every other trial is discarded."""
        return self.first == 21


# The scalar accumulation serves no command; it stays while bench/tracer.py patches it by name.
class AccumulationResult(NamedTuple):
    pieces_used: int
    total_before_last: float
    total: float


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
    import numpy as np

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
        juxtaposition = rng.generator.uniform(-span, 0.0, _BLOCK)
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


def _lay(
    rng: RngState, ref: np.ndarray, running: np.ndarray, target: np.ndarray, steps: int,
    cut_stdev: float, span: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lay ``steps`` copies of each row's reference piece after its running total.

    Every copy is cut to match (normal error) and juxtaposed against the
    previous one (uniform shrinkage). Returns per row the copies laid up to
    the first total past ``target``, the total before that copy and the total
    after it. A row that does not pass returns ``steps`` and its last two totals.
    """
    import numpy as np

    m = ref.size
    totals = ref[:, None] + cut_stdev * normal_block(rng, m * steps).reshape(m, steps)
    totals += rng.generator.uniform(-span, 0.0, m * steps).reshape(m, steps)
    np.cumsum(totals, axis=1, out=totals)
    totals += running[:, None]
    over = totals > target[:, None]
    k = np.where(over.any(axis=1), over.argmax(axis=1), steps - 1)
    rows = np.arange(m)
    before = np.where(k > 0, totals[rows, k - 1], running)
    return k + 1, before, totals[rows, k]


def trial_block(rng: RngState, cfg: TrialConfig) -> TrialBlock:
    """``BLOCK_TRIALS`` trials drawn from ``rng``, one per row.

    The piece is exact geometry plus bend elongation, groove noise, three cut
    protrusions and cut-to-match noise. The first quotient is the copies of it
    laid before one passes 6R; the leftover piece is the gap below 6R plus a
    juxtaposition gap, cut-to-match noise and one protrusion. The second
    quotient is its copies against the piece, rounded to nearest with ties up
    (``literal_rounding`` inverts the branch), 0 for a leftover piece not
    positive, and ``WINDOW_HI + 1`` for any count past the window. A piece
    outside (0, 6R) or a first count past the 10^6-piece guard raises
    :class:`DegenerateConfigError`.
    """
    import numpy as np

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
    # more than half of the last copy past the mark rounds down, on every row
    used = np.where(longer, 1, laid + 1)
    last = np.where(longer, remainder, total - before)
    overshoot = np.where(longer, remainder, total) - piece
    rounds_down = overshoot < 0.5 * last if cfg.literal_rounding else overshoot > 0.5 * last
    second = used - rounds_down
    second[short & ~longer] = WINDOW_HI + 1
    second[remainder <= 0] = 0
    return TrialBlock(first, second, piece, remainder)


def trial_blocks(rng: RngState, cfg: TrialConfig, n_trials: int | None = None):
    """:func:`trial_block` of child stream b of ``rng`` for b = 0, 1, ..., cut to
    ``n_trials`` rows in all; with None the blocks never end."""
    for b in itertools.count() if n_trials is None else range(-(-n_trials // BLOCK_TRIALS)):
        block = trial_block(derive_child(rng, b), cfg)
        rows = None if n_trials is None else n_trials - b * BLOCK_TRIALS
        yield TrialBlock(*(column[:rows] for column in block))


def simulate_trial(rng: RngState, cfg: TrialConfig) -> TrialResult:
    """Row 0 of :func:`trial_blocks` of ``rng``: the first trial of a campaign on ``rng``."""
    block = next(trial_blocks(rng, cfg, 1))
    return TrialResult(int(block.first[0]), int(block.second[0]), float(block.piece[0]),
                       float(block.remainder[0]), not block.kept[0])
