"""Closed-loop workloads: one caller, one warm ``SolverSession``.

The caller sends its next solve only after the previous one returns, on
one thread, so ``SolveResult.kernel_counters`` (process-global) is exact
here.  A unit is one ``solve`` call; on ``cg-batch64`` a call carries 64
right-hand sides on the batch axis.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

import layers
from common import (
    SETUPS,
    RhsStream,
    check_identical,
    check_residuals,
    host_solve_ms,
    median,
    tail,
    working_set_bytes,
)
from systems import poisson_system

def _window(session, stream: RhsStream, seconds: float, spans=None):
    """Solve stream units back to back for ``seconds``; return
    ``[(b, result, call_seconds, kernel_ms, overhead_ms)]`` and the window."""
    units = []
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        b = stream.next()
        if spans is None:
            t0 = time.perf_counter()
            r = session.solve(b)
            units.append((b, r, time.perf_counter() - t0, None, None))
            continue
        with spans.span("solve", req=len(units)):
            t0 = time.perf_counter()
            r, kernel_ms, overhead_ms = layers.traced_solve(
                lambda **kw: session.solve(b, **kw), spans.wt)
            units.append((b, r, time.perf_counter() - t0, kernel_ms, overhead_ms))
    return units, time.perf_counter() - t_start


def _counts(result, batch: int) -> dict:
    return {
        "solvers.iterations": int(result.iterations),
        "compile.loop_kernels": layers.loop_kernels(result.compiled),
        "sparse.halo_bytes_per_iter": int(result.solver.A.plan.exchanged_bytes(4, batch)),
        "compile.fallback_vertices": int(result.kernel_counters["fallback_vertices"]),
    }


def _setup(system, warm_b):
    """One cold set-up: a fresh session whose first solve builds and lowers
    the program, then runs it once (the warm-up)."""
    from repro.solvers import SolverSession

    t0 = time.perf_counter()
    session = SolverSession(system.crs, system.config, **system.kwargs())
    session.solve(warm_b)
    return session, time.perf_counter() - t0


def closed_loop(run, system, batch: int, seconds: float, trace: bool, spans,
                reference) -> None:
    """Run either closed-loop workload.

    ``reference(run, first_b, first_result)`` is the workload's
    bit-identity check of one unit.
    """
    warm_b = RhsStream(run.seed, system.n, batch, stream=1).next()
    setup_times = []
    for _ in range(SETUPS):
        with spans.span("setup") if spans is not None else nullcontext():
            session, dt = _setup(system, warm_b)
        setup_times.append(dt)
    run.e2e["setup_s"] = median(setup_times)

    units, window_s = _window(session, RhsStream(run.seed, system.n, batch), seconds)
    run.attempted = len(units)
    ok = 0
    for i, (b, r, _, _, _) in enumerate(units):
        ok += check_residuals(run, system.csr, r.x, b, system.tol, f"unit {i}")
    first_b, first = units[0][0], units[0][1]
    reference(run, first_b, first)
    run.expect_counts("untraced", _counts(first, batch))

    lat = [u[2] * 1e3 for u in units]
    tail_ms, tail_label, n = tail(lat)
    run.e2e["throughput_per_s"] = ok * batch / window_s
    run.e2e["latency_p50_ms"] = median(lat)
    run.e2e["latency_tail_ms"] = tail_ms
    run.report.update(latency_tail=f"{tail_label} of {n} calls", window_s=window_s,
                      units=len(units))
    run.report["baselines.host_solve_ms"] = host_solve_ms(
        system.csr, first_b if batch == 1 else first_b[0], system.tol)

    if not trace:
        return
    with spans.span("window.traced"):
        traced, _ = _window(session, RhsStream(run.seed, system.n, batch), seconds,
                            spans=spans)
    run.expect_counts("traced", _counts(traced[0][1], batch))
    for i, (b, r, _, _, _) in enumerate(traced):
        check_residuals(run, system.csr, r.x, b, system.tol, f"traced unit {i}",
                        units=0)
    stats = session.stats()
    layer = run.layer
    layer.update(run.counts)
    layer["runtime.kernel_ms"] = median([u[3] for u in traced])
    layer["solvers.call_overhead_ms"] = median([u[4] for u in traced])
    layer["trace.overhead_frac"] = (median([u[2] for u in traced]) * 1e3
                                    / run.e2e["latency_p50_ms"] - 1.0)
    layer["serve.exec_ms_p50"] = run.e2e["latency_p50_ms"]
    layer["serve.batch_width_mean"] = float(batch)
    layer["serve.shed_frac"] = 0.0
    layer["serve.cache_hit_ratio"] = stats["hits"] / max(1, stats["hits"] + stats["misses"])
    layers.common_probes(run, system, batch, first_b, spans)


# -- the two workloads -------------------------------------------------------------------


def cg_stream(run, seconds: float, trace: bool, spans) -> None:
    """poisson3d:40 (64,000 rows) on 16 IPUs x 16 tiles, one RHS per call."""
    from repro.solvers import solve

    system = poisson_system("poisson3d:40", 40, num_ipus=16)

    def reference(run, b, result):
        sim = solve(system.crs, b, system.config, **system.kwargs(backend="sim"))
        check_identical(run, result.x, sim.x, "cg-stream unit 0 vs sim backend")
        run.report["modeled_solve_ms"] = sim.seconds * 1e3

    run.report["working_set_bytes"] = working_set_bytes(system.crs, 1)
    closed_loop(run, system, 1, seconds, trace, spans, reference)


def cg_batch64(run, seconds: float, trace: bool, spans) -> None:
    """poisson3d:16 (4,096 rows) on 2 IPUs x 16 tiles, 64 RHS per call."""
    from repro.solvers import SolverSession

    system = poisson_system("poisson3d:16", 16, num_ipus=2)

    def reference(run, b, result):
        j = int(np.random.default_rng([run.seed, 3]).integers(64))
        single = SolverSession(system.crs, system.config, **system.kwargs())
        check_identical(run, result.x[j], single.solve(b[j]).x,
                        f"cg-batch64 column {j} vs its single-RHS solve")

    run.report["working_set_bytes"] = working_set_bytes(system.crs, 64)
    closed_loop(run, system, 64, seconds, trace, spans, reference)
