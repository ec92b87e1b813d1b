"""The benchmark's workloads: the inputs each one generates and the checks on its outputs.

A workload runs one *command* at a time (a closed loop with one caller). A
command is a ``sixradii`` CLI invocation, or for ``cf_roundtrip`` one sweep
of :mod:`cfsweep`. Its *operations* are the units counted as attempted or
failed (campaigns, grid cells, recip grid points, cf pairs); its *work* is the
elementary unit behind the throughput (recorded measurements, samples, cf
pairs), credited only for operations that pass their checks. Every check on
an output fails the operations it covers.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import statistics
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Outcome:
    """What one command produced, after checking it."""

    ops: int
    failed: int
    work: int
    digest: str
    pooled: object = None  # input to the run-level checks
    problems: list[str] = field(default_factory=list)


def report_digest(out_dir: Path) -> str:
    """sha256 over the names and bytes of every report file, in name order."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15) or (a != a and b != b)


class Workload:
    name = ""
    why = ""
    op = ""  # what one operation is
    work_alias = ""  # the workload's own name for work_per_s
    campaigns_per_command = 0  # for the campaigns_per_s alias, where there are campaigns
    ops_per_command = 0

    def command(self, seed: int, threads: int, out_dir: Path) -> list[str]:
        raise NotImplementedError

    def run_in_process(self, seed: int, threads: int, out_dir: Path) -> tuple[int, str]:
        """Run the command inside this process: (exit code, standard output)."""
        raise NotImplementedError

    def outcome(self, code: int, stdout: str, out_dir: Path, seed: int) -> Outcome:
        raise NotImplementedError

    def failure(self, problem: str) -> Outcome:
        n = self.ops_per_command
        return Outcome(n, n, 0, "", problems=[problem])

    def run_checks(self, pooled: list) -> list[tuple[str, bool | None, str]]:
        """Acceptance checks over all commands of a run: (label, passed or None, detail)."""
        return []


class CliWorkload(Workload):
    """A workload whose command is ``python3 -m sixradii.cli ...``."""

    def argv(self, seed: int, threads: int, out_dir: Path) -> list[str]:
        raise NotImplementedError

    def command(self, seed, threads, out_dir):
        return [sys.executable, "-m", "sixradii.cli", *self.argv(seed, threads, out_dir)]

    def run_in_process(self, seed, threads, out_dir):
        from sixradii import cli

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(self.argv(seed, threads, out_dir))
        return code, buffer.getvalue()

    def outcome(self, code, stdout, out_dir, seed):
        if code != 0:
            return self.failure(f"exit code {code}: {stdout.strip()[-300:]}")
        try:
            return self.read(out_dir)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return self.failure(f"unreadable report: {exc!r}")

    def read(self, out_dir: Path) -> Outcome:
        raise NotImplementedError


class SuccessR450(CliWorkload):
    name = "success_r450"
    why = ("headline stopping-rule campaigns at R=450: trials stream one at a time, "
           "stopping_met after every measurement, uneven chunks in the process pool")
    op = "campaign"
    work_alias = "measurements_per_s"
    campaigns = 100
    campaigns_per_command = campaigns
    ops_per_command = campaigns
    max_measurements = 10_000  # the CLI default

    def argv(self, seed, threads, out_dir):
        return ["success", "--campaigns", str(self.campaigns), "--seed", str(seed),
                "--formats", "csv,json", "--threads", str(threads), "--out", str(out_dir)]

    def read(self, out_dir):
        rows = _rows(out_dir / "success_campaigns.csv")
        n = self.campaigns
        if [int(r["campaign"]) for r in rows] != list(range(n)):
            return self.failure("campaign rows missing or out of order")
        campaigns = [(int(r["selected"]) if r["selected"] else None, int(r["measurements"]),
                      int(r["discarded"])) for r in rows]
        # A no-decision campaign is a failure.
        ok = [s is not None and 1 <= s <= 16 and 1 <= m <= self.max_measurements and d >= 0
              for s, m, d in campaigns]
        problems = []
        if not all(ok):
            problems.append(f"{ok.count(False)} campaigns without a decision or out of range")
        # The summary must be the one the per-campaign rows imply (summarize_success).
        stopped = [m for s, m, _ in campaigns if s is not None]
        fraction = sum(1 for s, _, _ in campaigns if s == 5) / n
        expected = {
            "success_fraction": fraction,
            "mean_measurements": sum(stopped) / len(stopped) if stopped else float("nan"),
            "no_decision_fraction": sum(1 for s, _, _ in campaigns if s is None) / n,
            "ci_half_width": 1.96 * math.sqrt(fraction * (1.0 - fraction) / n),
        }
        summary = _rows(out_dir / "success.csv")[0]
        results = json.loads((out_dir / "success.json").read_text())["results"]
        bad_summary = [key for key, value in expected.items()
                       if not (_close(float(summary[key]), value) and _close(results[key], value))]
        if bad_summary or int(summary["n_campaigns"]) != n:
            problems.append(f"summary disagrees with the campaign rows: {bad_summary}")
            ok = [False] * n
        return Outcome(n, ok.count(False),
                       sum(m for (_, m, _), good in zip(campaigns, ok) if good),
                       report_digest(out_dir), pooled=campaigns, problems=problems)

    def run_checks(self, pooled):
        # Criterion 4 bands, applied once the run holds the criterion's 500
        # campaigns; below that they would fail by chance.
        campaigns = [c for chunk in pooled if chunk for c in chunk]
        n = len(campaigns)
        if n < 500:
            return [("c04 bands", None, f"{n} campaigns < 500")]
        success = sum(1 for s, _, _ in campaigns if s == 5) / n
        stopped = [m for s, m, _ in campaigns if s is not None]
        mean = sum(stopped) / len(stopped) if stopped else float("nan")
        ok = 0.65 <= success <= 0.85 and 250 <= mean <= 420
        return [("c04 bands", ok,
                 f"success {success:.3f} in [0.65, 0.85], mean measurements "
                 f"{mean:.1f} in [250, 420], {n} campaigns")]


class BudgetGrid(CliWorkload):
    name = "budget_grid"
    why = ("fixed-budget radius x budget grid: same trial layer, trial count known, "
           "no stopping_met, cells differing 13x in work and by radius in waste")
    op = "grid cell"
    work_alias = "measurements_per_s"
    radii = (200.0, 450.0, 900.0)
    budgets = (25, 100, 325)
    campaigns_per_cell = 30
    campaigns_per_command = len(radii) * len(budgets) * campaigns_per_cell
    ops_per_command = len(radii) * len(budgets)

    def argv(self, seed, threads, out_dir):
        return ["grid", "--radii", ",".join(f"{r:g}" for r in self.radii),
                "--budgets", ",".join(str(b) for b in self.budgets),
                "--campaigns-per-cell", str(self.campaigns_per_cell), "--seed", str(seed),
                "--threads", str(threads), "--out", str(out_dir)]

    def read(self, out_dir):
        rows = _rows(out_dir / "grid.csv")
        cells = json.loads((out_dir / "grid.json").read_text())["results"]["cells"]
        expected = [(r, b) for r in self.radii for b in self.budgets]
        if [(float(r["radius"]), int(r["budget"])) for r in rows] != expected:
            return self.failure("grid cells missing or out of order")
        m = self.campaigns_per_cell
        failed = 0
        work = 0
        for row, cell in zip(rows, cells):
            # A cell's success fraction is wins / campaigns, as grid.json says.
            fraction = float(row["success_fraction"])
            if (0.0 <= fraction <= 1.0 and _close(round(fraction * m) / m, fraction)
                    and [float(row["radius"]), int(row["budget"]), fraction] == cell):
                work += int(row["budget"]) * m
            else:
                failed += 1
        problems = [f"{failed} cells malformed or disagreeing with grid.json"] if failed else []
        return Outcome(len(rows), failed, work, report_digest(out_dir), problems=problems)


class RecipRatio(CliWorkload):
    name = "recip_ratio"
    why = ("ratio-of-normals study in 4M-sample numpy chunks: bypasses the trial, "
           "histogram and pool layers; bound by memory traffic and peak RSS")
    op = "recip grid point"
    work_alias = "samples_per_s"
    stdevs = (0.0, 0.05, 0.1, 0.15, 0.2)  # the CLI default grid
    samples = 8_000_000
    bin_width = 0.02  # the CLI default
    ops_per_command = len(stdevs)
    ratio = 5.0  # numerator mean / denominator mean, the CLI default
    # Criterion 8 is defined at 1e8 samples per point. At one command's 8e6
    # the mode bin of the two widest points wanders over +-0.08 and their
    # peaks cross now and then by chance, so c08 is applied to the per-point
    # means over at least this many commands of a run (see run_checks).
    c08_min_commands = 5

    def argv(self, seed, threads, out_dir):
        return ["recip", "--samples", str(self.samples), "--seed", str(seed),
                "--threads", str(threads), "--out", str(out_dir)]

    def read(self, out_dir):
        rows = _rows(out_dir / "recip.csv")
        points = json.loads((out_dir / "recip.json").read_text())["results"]["points"]
        parsed = [[float(r["denominator_stdev"]), float(r["peak_location"]),
                   float(r["central_mean"])] for r in rows]
        if [p[0] for p in parsed] != list(self.stdevs) or parsed != points:
            return self.failure("recip points missing or disagreeing with recip.json")
        # Each peak is a bin center and each central mean an average of
        # in-window samples, so both lie inside the +-5 r0 histogram window
        # (plus the outer bins' rounding).
        limit = 5.0 * self.ratio + 2 * self.bin_width
        failed = sum(
            1 for _, peak, mean in parsed
            if not (abs(peak - self.ratio) <= limit and abs(mean - self.ratio) <= limit
                    and _close(round((peak - self.ratio) / self.bin_width) * self.bin_width,
                               peak - self.ratio)))
        problems = [f"{failed} points outside the histogram window"] if failed else []
        return Outcome(len(parsed), failed, (len(parsed) - failed) * self.samples,
                       report_digest(out_dir), pooled=parsed, problems=problems)

    def run_checks(self, pooled):
        # Criterion 8 on the run: averaged over its commands, peaks do not
        # rise by more than one bin and central means do not fall by more
        # than 1e-4 as the denominator spread grows.
        commands = [points for points in pooled if points]
        k = len(commands)
        if k < self.c08_min_commands:
            return [("c08 monotonicity", None,
                     f"{k} commands < {self.c08_min_commands}")]
        peaks = [statistics.fmean(c[j][1] for c in commands) for j in range(len(self.stdevs))]
        means = [statistics.fmean(c[j][2] for c in commands) for j in range(len(self.stdevs))]
        ok = (all(b <= a + self.bin_width for a, b in zip(peaks, peaks[1:]))
              and all(b >= a - 1e-4 for a, b in zip(means, means[1:])))
        return [("c08 monotonicity", ok,
                 f"mean peaks {['%.3f' % p for p in peaks]} non-increasing, mean central "
                 f"means {['%.4f' % m for m in means]} non-decreasing, {k} commands")]


class CfRoundtrip(Workload):
    name = "cf_roundtrip"
    why = ("exact continued-fraction round trip of every reduced p/q <= 300 "
           "(criterion 7): all work in contfrac, none in the other workloads")
    op = "cf pair"
    work_alias = "cf_pairs_per_s"
    n = 300

    @cached_property
    def ops_per_command(self) -> int:
        return sum(1 for q in range(1, self.n + 1) for p in range(1, self.n + 1)
                   if math.gcd(p, q) == 1)

    def command(self, seed, threads, out_dir):
        return [sys.executable, str(BENCH_DIR / "cfsweep.py"),
                "--n", str(self.n), "--seed", str(seed)]

    def run_in_process(self, seed, threads, out_dir):
        import cfsweep

        return 0, json.dumps(cfsweep.sweep(cfsweep.reduced_pairs(self.n, seed)))

    def outcome(self, code, stdout, out_dir, seed):
        try:
            result = json.loads(stdout.strip().splitlines()[-1]) if code == 0 else None
        except (ValueError, IndexError):
            result = None
        if result is None or result["pairs"] != self.ops_per_command:
            return self.failure(f"exit code {code}: {stdout.strip()[-300:]}")
        failed = result["failed"]
        problems = [f"{failed} pairs failed the exact round trip"] if failed else []
        return Outcome(result["pairs"], failed, result["pairs"] - failed, result["sha256"],
                       problems=problems)


WORKLOADS = {w.name: w for w in (SuccessR450(), BudgetGrid(), RecipRatio(), CfRoundtrip())}
