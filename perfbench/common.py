"""Shared pieces of the benchmark: statistics, output checks, spans,
exact-count bookkeeping, and the environment record.

Nothing here reaches into the program's internals: timings are taken
around public calls, and checks recompute residuals on the host in f64
with scipy rather than trusting the solver's own report.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Every solve, column and job must reach this multiple of its tolerance.
RESIDUAL_SLACK = 10.0

#: Cold set-ups per run; ``setup_s`` is their median.
SETUPS = 5

OUT_DIR = Path(__file__).resolve().parent / "out"


# -- statistics ----------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def tail(values) -> tuple[float, str, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, label, n)``.  With ``n`` samples the order statistic
    ``sorted[n - 11]`` has exactly ten samples above it; up to 21 samples
    that statistic sits at or under the median, so the median is reported
    instead and labelled as such.
    """
    n = len(values)
    if n == 0:
        return float("nan"), "none", 0
    if n <= 21:
        return median(values), "p50", n
    ordered = sorted(values)
    return float(ordered[n - 11]), f"p{100.0 * (n - 10) / n:.1f}", n


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- run record ------------------------------------------------------------------------


@dataclass
class Run:
    """Everything one workload run reports.

    ``e2e`` and ``layer`` carry the contract metrics (name -> value);
    ``report`` carries workload-specific figures that are printed and
    saved but not gated (tail percentile, per-tenant medians, the modeled
    solve time, the serve-only per-phase splits).  ``counts`` are the exact
    counts that must repeat across runs of one seed.
    """

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def fail(self, message: str, units: int = 0) -> None:
        """Record a failed check; ``units`` failed units count in ``failed``."""
        self.problems.append(message)
        self.failed += units

    def expect_counts(self, label: str, counts: dict) -> None:
        """Pin exact counts: the first call records them, later calls (the
        traced window) must reproduce them exactly."""
        if not self.counts:
            self.counts = dict(counts)
        elif counts != self.counts:
            self.fail(f"exact counts differ between windows ({label}): "
                      f"{counts} != {self.counts}")


def program_digest() -> str:
    """Short hash of the program's source, so counts pinned by one version
    of the program are never compared with another's."""
    h = hashlib.sha256()
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    for f in sorted(src.rglob("*.py")):
        h.update(str(f.relative_to(src)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:12]


def check_counts_across_runs(run: Run) -> None:
    """Counts of one seed must repeat across runs of the same program."""
    if not run.counts:
        return
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"counts-{run.workload}-seed{run.seed}-{program_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != run.counts:
            run.fail(f"exact counts differ from an earlier run of seed "
                     f"{run.seed}: {run.counts} != {before}")
    else:
        path.write_text(json.dumps(run.counts, sort_keys=True) + "\n")


# -- inputs ---------------------------------------------------------------------------


class RhsStream:
    """Seeded right-hand sides: unit ``i`` always gets the same vector(s)."""

    def __init__(self, seed: int, n: int, batch: int, stream: int = 0):
        self.rng = np.random.default_rng([seed, stream])
        self.shape = (batch, n) if batch > 1 else (n,)

    def next(self) -> np.ndarray:
        return self.rng.standard_normal(self.shape).astype(np.float32)


# -- output checks ------------------------------------------------------------------------


def true_residuals(csr, x, b) -> np.ndarray:
    """f64 ``||b - A x|| / ||b||`` per right-hand side (rows of 2-D inputs)."""
    x64 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    b64 = np.atleast_2d(np.asarray(b, dtype=np.float64))
    r = b64 - (csr @ x64.T).T
    bn = np.linalg.norm(b64, axis=1)
    return np.linalg.norm(r, axis=1) / np.where(bn > 0, bn, 1.0)


def check_residuals(run: Run, csr, x, b, tol: float, what: str,
                    units: int = 1) -> bool:
    """Fail ``run`` unless every column of ``x`` meets ``RESIDUAL_SLACK*tol``;
    a miss counts ``units`` failed units."""
    res = true_residuals(csr, x, b)
    bad = int(np.count_nonzero(~(res <= RESIDUAL_SLACK * tol)))
    if bad:
        run.fail(f"{what}: {bad}/{res.size} columns above {RESIDUAL_SLACK:g}x tol "
                 f"(worst {float(np.max(res)):.3e}, tol {tol:g})", units=units)
    return bad == 0


def check_identical(run: Run, got, want, what: str) -> bool:
    ok = np.array_equal(np.asarray(got), np.asarray(want))
    if not ok:
        run.fail(f"{what}: not bit-identical to its reference", units=1)
    return ok


# -- spans ----------------------------------------------------------------------------


class Spans:
    """The benchmark's own spans, kept in memory and written at the end.

    The clock is a :class:`~repro.telemetry.WallTracer`'s ``now()``, so
    these spans and the kernel spans that tracer records inside solves
    share one ``wall_ns`` time origin and load side by side in Perfetto.
    Each span has a name, start, end, parent and request id; ``lane`` is
    the Chrome thread it is drawn on (concurrent jobs need separate lanes,
    because spans on one thread must nest).
    """

    def __init__(self, wall_tracer):
        self.wt = wall_tracer
        self.items: list[dict] = []
        self._stack: list[int] = []

    def now(self) -> int:
        return self.wt.now()

    def add(self, name: str, start: int, end: int, *, parent: int | None = None,
            req: int | None = None, lane: int = 0, **args) -> int:
        sid = len(self.items) + 1
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.items.append({"id": sid, "name": name, "start": int(start),
                           "end": int(max(end, start)), "parent": parent,
                           "req": req, "lane": lane, "args": args})
        return sid

    @contextmanager
    def span(self, name: str, req: int | None = None, **args):
        start = self.now()
        sid = self.add(name, start, start, req=req, **args)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.items[sid - 1]["end"] = self.now()

    def export(self, path: Path) -> list:
        """Write benchmark + kernel spans as one Chrome trace through the
        program's exporter; return :func:`validate_chrome_trace` errors."""
        from repro.telemetry import SpanEvent, chrome_trace, validate_chrome_trace

        events = list(self.wt.events) + [
            SpanEvent(s["name"], "bench", s["start"], s["end"] - s["start"],
                      {"id": s["id"], "parent": s["parent"], "req": s["req"],
                       "lane": s["lane"], **s["args"]})
            for s in self.items
        ]
        obj = chrome_trace(events, meta={**self.wt.meta, "source": "perfbench"})
        # chrome_trace draws everything on thread 0; move each benchmark
        # span to its lane (kernel spans stay on lane 0, under the solve
        # span that encloses them).
        for rec in obj["traceEvents"]:
            if rec.get("cat") == "bench":
                rec["tid"] = rec["args"]["lane"]
        errors = validate_chrome_trace(obj)
        path.write_text(json.dumps(obj) + "\n")
        return errors


def assign_lanes(intervals) -> list[int]:
    """Greedy interval partitioning: a lane per interval such that the
    intervals on one lane are disjoint.  ``intervals`` is ``[(start, end)]``."""
    lanes_end: list[int] = []
    out = [0] * len(intervals)
    for i in sorted(range(len(intervals)), key=lambda k: intervals[k][0]):
        start, end = intervals[i]
        for lane, last in enumerate(lanes_end):
            if start >= last:
                lanes_end[lane] = end
                out[i] = lane
                break
        else:
            lanes_end.append(end)
            out[i] = len(lanes_end) - 1
    return out


# -- layer probes shared by every workload --------------------------------------------


def timed(fn, repeats: int = 1):
    """``(median seconds, last result)`` of ``repeats`` calls of ``fn``."""
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return median(times), out


def host_solve_ms(csr, b, tol: float, repeats: int = 3) -> float:
    """Machine-speed reference: scipy's CG on the host, f64, same tol."""
    from scipy.sparse.linalg import cg

    b64 = np.asarray(b, dtype=np.float64)
    seconds, _ = timed(lambda: cg(csr, b64, rtol=tol, maxiter=10 * csr.shape[0]),
                       repeats)
    return seconds * 1e3


def working_set_bytes(crs, batch: int) -> int:
    """Estimated device working set of a CG solve: f32 CRS values + i32
    column indices, the f32 diagonal, and six f32 vectors (x, b, r, z, p,
    Ap) of ``batch`` columns."""
    return int(crs.nnz_offdiag * 8 + crs.n * 4 + 6 * crs.n * 4 * batch)


# -- environment ---------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment() -> dict:
    """nproc, CPU model, cache sizes and library versions of this host."""
    import numpy
    import scipy

    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in range(8):
        level = _read(f"{base}/index{idx}/level").strip()
        kind = _read(f"{base}/index{idx}/type").strip()
        size = _read(f"{base}/index{idx}/size").strip()
        if level and size and kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor() or platform.machine(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def llc_bytes(env: dict) -> int | None:
    """Size of the last-level cache in bytes, if the host reports one."""
    caches = env.get("caches") or {}
    if not caches:
        return None
    size = caches[max(caches)]
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    try:
        return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    except ValueError:
        return None
