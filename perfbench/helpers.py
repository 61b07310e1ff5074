"""Shared pieces of the benchmark: import of the program under test,
operation accounting, percentile selection, the paper-invariant
checker, peak-RSS and cold-start probes.

Everything here is host-side bookkeeping; none of it touches the
program's internals beyond its public entry points.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: traced-run reports land here (gitignored)
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: the paper's four protection points
SCHEMES = ("np", "guardnn-c", "guardnn-ci", "bp")


class BenchError(RuntimeError):
    """The benchmark cannot run here (program missing, daemon dead)."""


def import_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and import the
    package, failing with a clear message when it is absent."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise BenchError(f"no program to benchmark: {SRC_DIR}/repro is missing")
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    import repro  # noqa: F401


def program_env() -> Dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
    return env


# -- operation accounting ---------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure
    reasons. An operation fails when it raises, is rejected, or its
    output check fails; ``error_rate`` is failed / attempted."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def check(self, problems: Sequence[str]) -> bool:
        """Count one operation, failed when ``problems`` is non-empty."""
        if problems:
            self.fail("; ".join(problems))
            return False
        self.ok()
        return True

    def retract(self, reason: str) -> None:
        """Mark an already-counted operation as failed (a later check,
        such as the direct-API comparison, found it wrong)."""
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``: metric values by
    name (units come from ``BENCHMARK.json``), the operation tally, and
    human-readable notes such as sample counts. An untraced run also
    carries the host-speed samples its time metrics are corrected by.
    A traced run carries each per-layer metric's base, its tracer, and
    the traced wall time and operation count."""

    metrics: Dict[str, float]
    tally: Tally
    notes: List[str] = field(default_factory=list)
    bases: Dict[str, str] = field(default_factory=dict)
    tracer: object = None
    traced_wall_s: float = 0.0
    traced_ops: int = 0
    host: Optional["HostSpeed"] = None


# -- percentiles ------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]): the smallest sample
    with at least ``q`` of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    # round first: 0.9 * 100 is 90.00000000000001 in binary floating point
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[min(rank, len(ordered)) - 1]


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q`` percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def highest_supported(values: Sequence[float],
                      candidates=(0.999, 0.99, 0.9, 0.5),
                      min_beyond: int = 10) -> Optional[float]:
    """The highest candidate percentile with at least ``min_beyond``
    samples above it, or ``None`` when not even the lowest qualifies."""
    for q in candidates:
        if beyond(values, q) >= min_beyond:
            return q
    return None


def latency_summary(seconds: Sequence[float]) -> Dict[str, object]:
    """p50/p90 in ms, the sample count, how many samples lie beyond p90,
    and the highest percentile with at least ten samples beyond it;
    ``note`` says all of that in one line for the report."""
    ms = [s * 1e3 for s in seconds]
    supported = highest_supported(ms)
    summary = {
        "p50_ms": percentile(ms, 0.5),
        "p90_ms": percentile(ms, 0.9),
        "samples": len(ms),
        "beyond_p90": beyond(ms, 0.9),
        "highest_supported": supported,
    }
    summary["note"] = (
        f"{summary['samples']} samples, {summary['beyond_p90']} beyond p90; "
        "highest percentile with ten beyond: "
        + (f"p{supported * 100:g}" if supported else "none"))
    return summary


# -- invariants -------------------------------------------------------------


def scheme_invariants(rows: Dict[str, Dict[str, int]], where: str = "",
                      analytic: bool = False) -> List[str]:
    """The paper's qualitative claims on one workload's per-scheme rows
    (each row has ``cycles`` and ``metadata_bytes``, and optionally
    ``vn_bytes``/``mac_bytes``/``tree_bytes``). Schemes absent from
    ``rows`` are skipped. Returns the violated claims (empty = all hold).

    Mechanistic rows (the DDR4 pipeline) must satisfy GuardNN-C cycles
    == NP cycles and NP < GuardNN-CI < BP. The analytic Figure 3 model
    lets AES bandwidth cost GuardNN-C a little, so ``analytic`` rows
    need only NP <= GuardNN-C <= GuardNN-CI <= BP (the golden suite's
    rule). Either way NP and GuardNN-C move no metadata, GuardNN-CI
    moves MAC lines only, and less of it than BP."""
    problems = []
    tag = f"{where}: " if where else ""
    np_row, c_row, ci_row, bp_row = (rows.get(name) for name in SCHEMES)
    for name, row in (("NP", np_row), ("GuardNN-C", c_row)):
        if row is not None and row["metadata_bytes"] != 0:
            problems.append(f"{tag}{name} moves metadata")
    if ci_row is not None and "mac_bytes" in ci_row:
        if ci_row["vn_bytes"] or ci_row["tree_bytes"] or not ci_row["mac_bytes"]:
            problems.append(f"{tag}GuardNN-CI metadata is not MAC-only")
    if (ci_row is not None and bp_row is not None
            and not 0 < ci_row["metadata_bytes"] < bp_row["metadata_bytes"]):
        problems.append(f"{tag}GuardNN-CI metadata not below BP's")
    if analytic:
        chain = (("np", np_row), ("guardnn-c", c_row),
                 ("guardnn-ci", ci_row), ("bp", bp_row))
    else:
        chain = (("np", np_row), ("guardnn-ci", ci_row), ("bp", bp_row))
        if c_row is not None and np_row is not None and c_row["cycles"] != np_row["cycles"]:
            problems.append(f"{tag}GuardNN-C cycles {c_row['cycles']} != NP "
                            f"{np_row['cycles']}")
    order = [(name, row["cycles"]) for name, row in chain if row is not None]
    for (low, a), (high, b) in zip(order, order[1:]):
        if not (a <= b if analytic else a < b):
            problems.append(f"{tag}cycles not {low} {'<=' if analytic else '<'} "
                            f"{high} ({a} vs {b})")
    return problems


#: the simulated outputs pinned per scheme in ``expected.json``
PINNED_KEYS = ("cycles", "bursts", "metadata_bytes")


def pinned_mismatches(got: Dict[str, Dict[str, int]],
                      expected: Dict[str, Dict[str, int]],
                      where: str = "") -> List[str]:
    """Compare per-scheme values against a pinned table."""
    problems = []
    tag = f"{where}: " if where else ""
    if set(got) != set(expected):
        return [f"{tag}schemes {sorted(got)} != pinned {sorted(expected)}"]
    for scheme, pinned in expected.items():
        for key in PINNED_KEYS:
            if got[scheme][key] != pinned[key]:
                problems.append(f"{tag}{scheme} {key} {got[scheme][key]} != "
                                f"pinned {pinned[key]}")
    return problems


# -- host speed -------------------------------------------------------------

#: median seconds of one calibration slice on the two-vCPU VM the
#: benchmark was sized on, in a quiet stretch (host factor 1.0)
NOMINAL_SLICE_S = 0.0063

#: units of the time metrics, which a slower host makes larger
TIME_UNITS = ("s", "ms", "ns")


class HostSpeed:
    """How fast the host runs fixed work right now, against nominal.

    A shared host slows every process on it, for minutes at a time, by
    up to ~1.8x (its neighbours' load), which no run length averages
    out. So a run interleaves short calibration slices with its
    operations, outside their timings: fixed benchmark-owned work that
    never calls the program (dict updates in a Python loop, then small
    numpy sorts and prefix sums, the simulator's own mix). ``factor`` is
    the run's median slice time over ``NOMINAL_SLICE_S``; time metrics
    are reported at the nominal host speed (``at_nominal_speed``), and
    the report prints the raw values too."""

    def __init__(self):
        import numpy

        self._numpy = numpy
        self._keys = numpy.random.default_rng(0).integers(0, 1 << 20, 4096)
        self.samples: List[float] = []

    def _slice(self) -> None:
        counts: Dict[int, int] = {}
        for i in range(3000):
            counts[i & 511] = counts.get(i & 511, 0) + i
        numpy = self._numpy
        for _ in range(20):
            numpy.cumsum(self._keys[numpy.argsort(self._keys, kind="stable")])

    def sample(self, slices: int = 1) -> float:
        """Run and time ``slices`` calibration slices; returns the
        seconds they took."""
        spent = 0.0
        for _ in range(slices):
            began = time.perf_counter()
            self._slice()
            elapsed = time.perf_counter() - began
            self.samples.append(elapsed)
            spent += elapsed
        return spent

    @property
    def factor(self) -> float:
        """Median slice time / nominal: 1.5 is a host 1.5x slower."""
        return statistics.median(self.samples) / NOMINAL_SLICE_S

    def note(self) -> str:
        return (f"host factor {self.factor:.4f}: median of {len(self.samples)} "
                f"calibration slices {statistics.median(self.samples) * 1e3:.3f} ms, "
                f"nominal {NOMINAL_SLICE_S * 1e3:.3f} ms")


def at_nominal_speed(value: float, unit: str, factor: float) -> float:
    """A metric measured on a host ``factor`` times slower than nominal,
    restated at nominal speed: times shrink by the factor, rates grow by
    it, and anything else (memory) is unchanged."""
    if unit in TIME_UNITS:
        return value / factor
    if unit == "1/s":
        return value * factor
    return value


# -- memory and set-up ------------------------------------------------------


def self_peak_rss_mb() -> float:
    """This process's peak RSS (``VmHWM``) in MB; Linux reports KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest waited-for child process, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def cold_start_seconds(workload: str, speed: HostSpeed,
                       repeats: int = 5) -> float:
    """Median wall time from launching a fresh interpreter until it has
    imported the program and built ``workload``'s machinery (see
    ``run.py --setup-probe``) and says so on stdout. ``speed`` samples
    the host after each start."""
    script = os.path.join(BENCH_DIR, "run.py")
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, script, "--setup-probe", workload],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=program_env(),
            cwd=REPO_ROOT, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - started
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe for {workload} failed "
                             f"(exit {proc.returncode}): {err.strip()[-500:]}")
        samples.append(ready)
        speed.sample(4)
    return statistics.median(samples)
