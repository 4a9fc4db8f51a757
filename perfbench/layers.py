"""Per-layer measurements, taken from outside by timing public calls.

Each function returns plain numbers; ``README.md`` maps every metric to
its layer and to the end-to-end metric it should move.
"""

from __future__ import annotations

import time

import numpy as np

from common import RhsStream, timed
from systems import circuit_system

#: Repeats per op microprobe; sized so one probe runs for tens of ms.
PROBE_REPS = 20


def partition_ms(system) -> float:
    """``partition_rows`` + ``build_halo_plan`` on the workload matrix."""
    from repro.sparse import build_halo_plan, partition_rows

    def run():
        part = partition_rows(system.crs, system.parts, grid_dims=system.grid_dims)
        return build_halo_plan(system.crs, part)

    seconds, _ = timed(run, repeats=3)
    return seconds * 1e3


def halo_bytes_per_iter(system, batch: int) -> int:
    """Fabric payload of the one halo exchange a CG iteration makes."""
    from repro.sparse import build_halo_plan, partition_rows

    part = partition_rows(system.crs, system.parts, grid_dims=system.grid_dims)
    return build_halo_plan(system.crs, part).exchanged_bytes(4, batch)


def loop_kernels(compiled) -> int:
    """Fused kernels launched per CG iteration of a compiled program."""
    return compiled.kernels.loop_kernel_count(compiled.root, "cg.iterate")


def build_lower_ms(system, b) -> tuple[float, int]:
    """Wall time of ``compile_solve`` (build + pass pipeline + lowering)
    and the loop kernel count of the artifact it returns."""
    from repro.solvers import compile_solve

    seconds, compiled = timed(
        lambda: compile_solve(system.crs, b, system.config, **system.compile_kwargs()))
    return seconds * 1e3, loop_kernels(compiled)


def op_probes(system, batch: int, seed: int) -> dict:
    """Per-op microprobes at the workload's shape on the fused backend.

    One TensorDSL program holds four ``Repeat`` blocks - SpMV (its halo
    exchange included), the halo exchange alone, a dot product, and an
    axpy - separated by host callbacks that stamp the wall clock, so a
    single ``Engine.run`` times every op without rebuilding the matrix.
    ``spmv_gbps`` divides the lowering's own byte estimate for one SpMV
    launch by the measured SpMV time (a computed figure).
    """
    from repro.graph import Engine
    from repro.machine import IPUDevice
    from repro.sparse.distribute import DistributedMatrix
    from repro.tensordsl import TensorContext

    device = IPUDevice(num_ipus=system.num_ipus, tiles_per_ipu=system.tiles_per_ipu)
    ctx = TensorContext(device)
    A = DistributedMatrix(ctx, system.crs, grid_dims=system.grid_dims)
    rng = np.random.default_rng([seed, 7])
    shape = (batch, system.n) if batch > 1 else (system.n,)
    x = A.vector("x", data=rng.standard_normal(shape), batch=batch)
    y = A.vector("y", data=rng.standard_normal(shape), batch=batch)
    s = ctx.scalar(0.5, batch=batch)
    ops = {
        "spmv": lambda: A.spmv(x, y),
        "exchange": lambda: A.exchange(x),
        "dot": lambda: s.assign(x.t.dot(y.t) * 1e-30 + 0.5),
        "axpy": lambda: y.owned.assign(y.t + s * x.t),
    }
    stamps: list[float] = []
    ctx.callback(lambda engine: stamps.append(time.perf_counter()))
    for op in ops.values():
        ctx.Repeat(PROBE_REPS, op)
        ctx.callback(lambda engine: stamps.append(time.perf_counter()))
    compiled = ctx.compile()
    runs = []
    for _ in range(3):
        stamps.clear()
        Engine(compiled, backend="fused").run()
        runs.append(np.diff(stamps) / PROBE_REPS * 1e3)
    per_op = np.median(np.array(runs), axis=0)
    out = {f"runtime.{name}_ms": float(ms) for name, ms in zip(ops, per_op)}
    # The first fused kernel is the SpMV block's loop body.
    spmv_bytes = compiled.kernels.kernels[0].est_bytes
    out["runtime.spmv_gbps"] = spmv_bytes / (out["runtime.spmv_ms"] * 1e-3) / 1e9
    return out


def traced_solve(solve, wall_tracer):
    """Run ``solve(wall_trace=...)`` into a shared tracer; return the
    result, its kernel wall ms and its call overhead ms (solve wall time
    minus kernel wall time: rebinding, fingerprinting, host residuals and
    result assembly)."""
    before = wall_tracer.profile()["total_wall_ns"]
    result = solve(wall_trace=wall_tracer)
    kernel_ms = (wall_tracer.profile()["total_wall_ns"] - before) * 1e-6
    return result, kernel_ms, result.wall_seconds * 1e3 - kernel_ms


def mpir_solve_ms(system, b, repeats: int = 2) -> float:
    """A direct session solve of the circuit system, warm (median)."""
    from repro.solvers import SolverSession

    session = SolverSession(system.crs, system.config, **system.kwargs())
    session.solve(b)
    seconds, _ = timed(lambda: session.solve(b), repeats)
    return seconds * 1e3


def common_probes(run, system, batch: int, b, spans) -> None:
    """The layer probes every workload's traced run takes on its main
    system: partitioning, compile, op microprobes, the MPIR solve."""
    layer = run.layer
    with spans.span("probe.partition"):
        layer["sparse.partition_ms"] = partition_ms(system)
    with spans.span("probe.compile"):
        ms, kernels = build_lower_ms(system, b)
    layer["compile.build_lower_ms"] = ms
    if kernels != run.counts["compile.loop_kernels"]:
        run.fail(f"compile_solve lowers {kernels} loop kernels, the solve ran "
                 f"{run.counts['compile.loop_kernels']}")
    with spans.span("probe.ops"):
        layer.update(op_probes(system, batch, run.seed))
    circuit = circuit_system()
    with spans.span("probe.mpir"):
        layer["solvers.mpir_solve_ms"] = mpir_solve_ms(
            circuit, RhsStream(run.seed, circuit.n, 1, stream=5).next())
    layer["baselines.host_solve_ms"] = run.report["baselines.host_solve_ms"]
