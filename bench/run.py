"""sixradii benchmark: four workloads, end-to-end metrics, and a traced per-layer run.

Run from the root of a source checkout (the program is imported from ./src):

    python3 bench/run.py --workload success_r450 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` runs the workload's command again and again in fresh processes,
with one worker process per CPU, for ``--seconds`` seconds and reports the
end-to-end metrics, scaled to a reference speed (see README.md).
``--trace 1`` runs it in-process: untraced with one worker and with one per
CPU, then traced with both, and reports the per-layer metrics, the tracing
overhead and the exact counters.
The last line of standard output is one JSON object (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from machine import machine_block, measure_copy_bandwidth  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

NPROC = os.cpu_count() or 1
MIN_SETUP_SAMPLES = 5
COMMAND_TIMEOUT_S = 120
# The reference command does fixed work that involves none of the program: a
# fresh interpreter importing numpy. REFERENCE_S is about its median wall time
# on the machine the baseline in README.md was measured on (0.16-0.25 s over
# a day); times are reported as if every run had seen that speed.
REFERENCE_COMMAND = [sys.executable, "-c", "import numpy"]
REFERENCE_S = 0.2

E2E = (("setup_s", "s"), ("wall_s", "s"), ("work_per_s", "1/s"), ("peak_rss_mb", "MB"))


def rep_seed(seed: int, rep: int) -> int:
    """Program seed of the rep-th command of a run: a pure function of (seed, rep)."""
    digest = hashlib.sha256(f"sixradii-bench/{seed}/{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    env.pop("SIXRADII_OUT", None)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_command(cmd: list[str]) -> tuple[int, str, float, float]:
    """Run one command to completion: (exit code, output, wall s, peak RSS MB).

    The peak RSS is that of the largest process in the command's tree
    (``wait4`` reports the maximum over the process and its reaped children).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, start_new_session=True)
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
    watchdog.start()
    try:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, output.decode(errors="replace"), wall, usage.ru_maxrss / 1024


class Scratch:
    """Fresh output directories under .bench_out/ in the checkout, removed after use."""

    def __init__(self, name: str) -> None:
        self.base = ROOT / ".bench_out" / f"{name}-{os.getpid()}"
        self.count = 0

    def new(self) -> Path:
        self.count += 1
        path = self.base / str(self.count)
        path.mkdir(parents=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


def setup_sample(scratch: Scratch) -> float:
    """Wall time of the cheapest complete CLI command in a fresh process.

    It is dominated by interpreter start, ``import sixradii``, the argument
    parser and config resolution.
    """
    out = scratch.new()
    code, output, wall, _ = run_command(
        [sys.executable, "-m", "sixradii.cli", "cf", "--value", "111/106", "--terms", "1",
         "--formats", "csv", "--out", str(out)])
    shutil.rmtree(out)
    if code != 0:
        raise RuntimeError(f"setup command failed: {output.strip()[-300:]}")
    return wall


def reference_sample() -> float:
    """Wall time of the reference command in a fresh process."""
    code, output, wall, _ = run_command(REFERENCE_COMMAND)
    if code != 0:
        raise RuntimeError(f"reference command failed: {output.strip()[-300:]}")
    return wall


def run_checks(workload, outcomes: list[Outcome]) -> tuple[list, int]:
    """Run-level acceptance checks; a failed one fails every operation of the run."""
    checks = workload.run_checks([o.pooled for o in outcomes])
    failed = sum(o.failed for o in outcomes)
    if any(ok is False for _, ok, _ in checks):
        failed = sum(o.ops for o in outcomes)
    return checks, failed


def _more(start: float, last: float, seconds: float) -> bool:
    """Whether another command of ``last`` seconds still fits in the run."""
    return time.perf_counter() - start + last <= seconds


def untraced(workload, seed: int, seconds: float, threads: int) -> dict:
    scratch = Scratch(workload.name)
    setups, references, walls, rss, outcomes = [], [], [], [], []
    start = time.perf_counter()
    cycle = 0.0
    try:
        # Set-up and reference samples are spread over the run, a set-up
        # sample between two reference samples before each command, so that
        # one burst of load on the machine cannot move them all.
        while not outcomes or _more(start, cycle, seconds):
            cycle_start = time.perf_counter()
            references.append(reference_sample())
            setups.append(setup_sample(scratch))
            references.append(reference_sample())
            program_seed = rep_seed(seed, len(outcomes))
            out = scratch.new()
            code, output, wall, peak = run_command(
                workload.command(program_seed, threads, out))
            outcomes.append(workload.outcome(code, output, out, program_seed))
            walls.append(wall)
            rss.append(peak)
            shutil.rmtree(out)
            cycle = time.perf_counter() - cycle_start
        while len(setups) < MIN_SETUP_SAMPLES:
            references.append(reference_sample())
            setups.append(setup_sample(scratch))
            references.append(reference_sample())
    finally:
        scratch.close()
    checks, failed = run_checks(workload, outcomes)
    # On a shared host the machine's speed can drift by a third for minutes
    # at a time, moving every program alike. Times are therefore reported at the reference
    # speed: scaled by REFERENCE_S over the run's median reference sample.
    # Means over the run's commands: the speed also switches between phases
    # of tens of seconds, and a mean follows the share of slow time smoothly
    # where a median jumps from phase to phase. Set-up and reference samples
    # are short and have outliers, so they take the median.
    scale = REFERENCE_S / statistics.median(references)
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(walls),
        "work_per_s": sum(o.work for o in outcomes) / sum(walls),
    }
    metrics = {
        "setup_s": raw["setup_s"] * scale,
        "wall_s": raw["wall_s"] * scale,
        "work_per_s": raw["work_per_s"] / scale,
        "peak_rss_mb": max(rss),
    }
    return {
        "attempted": sum(o.ops for o in outcomes), "failed": failed, "metrics": metrics,
        "units": dict(E2E), "commands": len(outcomes), "checks": checks,
        "problems": sorted({p for o in outcomes for p in o.problems}),
        "digest": outcomes[0].digest,
        "aliases": _aliases(workload, metrics),
        "raw": raw, "reference_s": statistics.median(references),
    }


def _aliases(workload, metrics: dict) -> dict:
    """The workload's own names for its throughput, and campaigns per second."""
    aliases = {workload.work_alias: metrics["work_per_s"]}
    if workload.campaigns_per_command:
        aliases["campaigns_per_s"] = workload.campaigns_per_command / metrics["wall_s"]
    return aliases


def traced(workload, seed: int, seconds: float, threads: int) -> dict:
    from tracer import Tracer, install
    import layers

    scratch = Scratch(workload.name)
    serial_s, parallel_s, traced_s, cycle_s = [], [], [], []
    outcomes, problems = [], []
    first_counters = None
    start = time.perf_counter()
    tracer = Tracer()

    def run(program_seed, workers, traced_run):
        out = scratch.new()
        before = tracer.counters()
        if traced_run:
            (code, output), wall = tracer.span(
                "bench.call", workload.run_in_process, program_seed, workers, out)
        else:
            t0 = time.perf_counter()
            code, output = workload.run_in_process(program_seed, workers, out)
            wall = time.perf_counter() - t0
        after = tracer.counters()
        outcome = workload.outcome(code, output, out, program_seed)
        shutil.rmtree(out)
        return outcome, wall, {k: after[k] - before[k] for k in after}

    try:
        # The probe also warms up every layer before the timed commands.
        probe = layers.probe(seed, scratch.new())
        while not outcomes or _more(start, cycle_s[-1], seconds):
            cycle_start = time.perf_counter()
            program_seed = rep_seed(seed, len(outcomes))
            # The untraced and traced serial runs are adjacent so that a change
            # of machine speed between them is least likely.
            serial, t_serial, _ = run(program_seed, 1, False)
            restore = install(tracer)
            try:
                traced_serial, t_traced, counters = run(program_seed, 1, True)
                tracer.keep_spans = False  # the first command's spans are enough
                traced_parallel, _, counters_parallel = run(program_seed, threads, True)
            finally:
                restore()
            parallel, t_parallel, _ = run(program_seed, threads, False)
            variants = (serial, parallel, traced_serial, traced_parallel)
            outcome = max(variants, key=lambda o: o.failed)
            rep_problems = [p for o in variants for p in o.problems]
            if len({o.digest for o in variants}) != 1:
                rep_problems.append("report bytes differ between thread counts or tracing")
            if counters != counters_parallel:
                rep_problems.append(f"counters differ between 1 and {threads} workers")
            if rep_problems:
                outcome = Outcome(outcome.ops, outcome.ops, outcome.work, outcome.digest,
                                  outcome.pooled)
            outcomes.append(outcome)
            problems.extend(rep_problems)
            serial_s.append(t_serial)
            parallel_s.append(t_parallel)
            traced_s.append(t_traced)
            cycle_s.append(time.perf_counter() - cycle_start)
            if first_counters is None:
                first_counters = counters
    finally:
        scratch.close()
    trace_path = ROOT / ".bench_out" / f"trace_{workload.name}.csv"
    spans = tracer.write(trace_path)
    machine = machine_block()
    machine.update(measure_copy_bandwidth(machine["llc_bytes"]))
    metrics = layers.metrics(
        tracer, probe, first_counters, machine["copy_gbps"],
        fanout_eff=sum(serial_s) / (threads * sum(parallel_s)),
        overhead_frac=sum(traced_s) / sum(serial_s) - 1.0,
    )
    checks, failed = run_checks(workload, outcomes)
    return {
        "attempted": sum(o.ops for o in outcomes), "failed": failed, "metrics": metrics,
        "units": layers.UNITS, "commands": len(outcomes), "checks": checks,
        "problems": sorted(set(problems)),
        "digest": outcomes[0].digest, "counters": first_counters, "machine": machine,
        "trace": f"{spans} spans in {trace_path.relative_to(ROOT)}",
    }


def print_block(workload, seed: int, trace: int, result: dict) -> None:
    print(f"== {workload.name} seed={seed} trace={trace} commands={result['commands']}")
    for name, value in result["metrics"].items():
        print(f"  {name:40s} {value:>16.6g} {result['units'][name]}")
    for name, value in result.get("aliases", {}).items():
        print(f"  {name:40s} {value:>16.6g} 1/s")
    if "raw" in result:
        print(f"  reference command median {result['reference_s']:.4g} s "
              f"(times scaled to {REFERENCE_S:g} s); unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in result["raw"].items()))
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_frac':40s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} {workload.op}s)")
    for label, ok, detail in result["checks"]:
        status = "not checked" if ok is None else ("PASS" if ok else "FAIL")
        print(f"  check {label}: {status} ({detail})")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(f"  report sha256 (first command): {result['digest']}")
    if "counters" in result:
        print("  counters (first command): " + json.dumps(result["counters"], sort_keys=True))
        print("  machine: " + json.dumps(result["machine"], sort_keys=True))
        print(f"  trace: {result['trace']}")


def result_line(results: dict) -> dict:
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    prefix = len(results) > 1
    metrics = {
        (f"{w}/{name}" if prefix else name): {"value": value, "unit": r["units"][name]}
        for w, r in results.items() for name, value in r["metrics"].items()
    }
    correct = failed == 0 and not any(r["problems"] for r in results.values())
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="sixradii benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sixradii" / "__init__.py").is_file():
        print(f"error: no sixradii sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import sixradii

    if Path(sixradii.__file__).resolve().parent != ROOT / "src" / "sixradii":
        print(f"error: imported sixradii from {sixradii.__file__}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run = traced if args.trace else untraced
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        results[name] = run(workload, args.seed, args.seconds, NPROC)
        print_block(workload, args.seed, args.trace, results[name])
    print(json.dumps(result_line(results), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
