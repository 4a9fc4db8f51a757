"""Top-level convenience API: one call from matrix to solution.

Wraps the whole pipeline — device, context, distribution, halo reordering,
solver construction from JSON, symbolic execution, graph compilation, and
concrete execution — behind :func:`solve`.  Examples and benchmarks go
through this entry point.  The schedule is lowered exactly once through the
pass pipeline (:mod:`repro.graph.passes`) into a
:class:`~repro.graph.CompiledProgram`, which the engine executes;
:func:`compile_solve` stops after lowering, for compile-report inspection.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import (
    DivergenceError,
    JobTimeoutError,
    ReproError,
    SolverBreakdownError,
    SRAMOverflowError,
)
from repro.graph import CompiledProgram, Engine
from repro.machine import IPUDevice
from repro.solvers.base import SolveProgress, SolveStats
from repro.solvers.config import build_solver
from repro.solvers.resilience import (
    ResilienceConfig,
    ResilienceMonitor,
    ResilienceReport,
    RollbackSignal,
)
from repro.solvers.session import CompiledSolve, fingerprint_solve, resolve_cache
from repro.sparse.crs import ModifiedCRS
from repro.sparse.distribute import DistributedMatrix
from repro.tensordsl import TensorContext, Type

__all__ = ["solve", "compile_solve", "validate_arrays", "SolveResult"]


@dataclass
class SolveResult:
    """Everything a caller needs after a solve."""

    x: np.ndarray  # solution in the original row order (best precision available)
    stats: SolveStats
    cycles: int
    seconds: float  # modeled wall-clock on the IPU
    relative_residual: float  # true ||b - Ax|| / ||b|| computed on the host in f64
    #: Number of RHS columns solved simultaneously (1 = classic solve).
    #: Batched solves return ``x`` with shape ``(batch, n)`` plus per-RHS
    #: ``batch_stats`` / ``relative_residuals``.
    batch: int = 1
    batch_stats: list | None = None  # per-RHS SolveStats when batch > 1
    relative_residuals: list | None = None  # per-RHS true residuals when batch > 1
    energy_j: float = 0.0  # modeled energy at the paper's measured power draw
    profile: dict = field(default_factory=dict)  # profiler category fractions
    engine: object = None
    solver: object = None
    compiled: CompiledProgram | None = None  # the executed program artifact
    backend: str = "sim"  # runtime backend the program executed on
    telemetry: object = None  # Tracer when solve(..., trace=...) was used
    #: ResilienceReport when faults and/or resilience were active, else None.
    resilience: object = None
    #: ``Engine.kernel_counters`` of this solve (kernel launches,
    #: dispatches, fused/fallback breakdown), summed over every engine it
    #: ran — OOM-degrade restarts and rollback re-runs included — when the
    #: backend dispatches fused kernels (``backend="fused"``), else None.
    kernel_counters: dict | None = None
    #: Measured host wall-clock seconds for the whole solve call, recorded
    #: on every backend (contrast ``seconds``, which is the sim backend's
    #: *modeled* device time and reads zero elsewhere).
    wall_seconds: float = 0.0
    #: Aggregated per-kernel wall profile (:meth:`WallTracer.profile`) when
    #: wall tracing or metrics were enabled, else None.
    wall_profile: dict | None = None
    #: :class:`~repro.telemetry.WallTracer` when ``wall_trace``/``metrics``
    #: was used (wall-domain events + exporters), else None.
    wall_telemetry: object = None
    #: :class:`~repro.telemetry.MetricsRegistry` when ``metrics`` was used.
    metrics: object = None

    @property
    def iterations(self) -> int:
        return self.stats.total_iterations

    @property
    def failure(self) -> str | None:
        """Why the solve fell short of its tolerance (None = converged)."""
        return self.stats.failure

    @property
    def compile_stats(self):
        """Optimized-schedule :class:`GraphStats` (None on legacy results)."""
        return self.compiled.stats if self.compiled is not None else None

    @property
    def compile_report(self) -> str:
        return self.compiled.report.render() if self.compiled is not None else ""

    def __repr__(self):
        timing = (
            f"cycles={self.cycles}, seconds={self.seconds:.3e}, "
            f"energy_j={self.energy_j:.3e}"
            if self.backend == "sim"
            else f"backend={self.backend!r}"
        )
        failure = f", failure={self.failure!r}" if self.failure is not None else ""
        n = self.x.shape[-1] if self.x.ndim > 1 else len(self.x)
        batched = f", batch={self.batch}" if self.batch > 1 else ""
        return (
            f"SolveResult(n={n}{batched}, iterations={self.iterations}, "
            f"relative_residual={self.relative_residual:.3e}, {timing}{failure})"
        )


def _build_program(
    matrix: ModifiedCRS,
    b: np.ndarray,
    config,
    num_ipus: int = 1,
    tiles_per_ipu: int = 16,
    num_tiles: int | None = None,
    grid_dims=None,
    x0: np.ndarray | None = None,
    device: IPUDevice | None = None,
    blockwise_halo: bool = True,
    monitor=None,
    batch: int = 1,
):
    """Construct the full solver schedule; shared by solve/compile_solve."""
    if device is None:
        device = IPUDevice(num_ipus=num_ipus, tiles_per_ipu=tiles_per_ipu)
    ctx = TensorContext(device)
    A = DistributedMatrix(
        ctx, matrix, num_tiles=num_tiles, grid_dims=grid_dims, blockwise=blockwise_halo
    )
    solver = build_solver(A, config)
    if batch > 1:
        unsupported = sorted(
            {s.name for s in solver.iter_tree() if not s.supports_batch}
        )
        if unsupported:
            raise ReproError(
                f"batched solves (batch={batch}) are not supported by "
                f"solver(s) {', '.join(unsupported)}; use a float32 cg/"
                "bicgstab config with identity or jacobi preconditioning, "
                "or solve the right-hand sides one at a time"
            )
        if getattr(solver, "rhs_dtype", Type.FLOAT32) != Type.FLOAT32:
            raise ReproError(
                "batched solves support the float32 working-precision path only"
            )
    if monitor is not None:
        # Attach before solve_into: detection callbacks are appended to the
        # schedule during symbolic execution.
        solver.enable_resilience(monitor)

    rhs_dtype = getattr(solver, "rhs_dtype", Type.FLOAT32)
    bvec = A.vector(
        name="b", dtype=rhs_dtype, data=np.asarray(b, dtype=np.float64), batch=batch
    )
    xvec = A.vector(name="x", batch=batch)
    if x0 is not None:
        xvec.write_global(np.asarray(x0, dtype=np.float64))

    # One profiler scope per solver phase: setup (factorizations, level-set
    # analysis) and the iteration itself, so Profiler.by_path() yields the
    # hierarchical Table IV breakdown instead of one "<toplevel>" bucket.
    with ctx.scope(f"setup:{solver.name}"):
        solver.setup()
    with ctx.scope(f"solve:{solver.name}"):
        solver.solve_into(xvec, bvec)
    return ctx, solver, xvec, bvec, device


def compile_solve(
    matrix: ModifiedCRS,
    b: np.ndarray,
    config,
    optimize: bool = True,
    **kwargs,
) -> CompiledProgram:
    """Build and lower a solver program without executing it.

    Returns the :class:`CompiledProgram` artifact — the CLI's
    ``compile-report`` view and the ablation benches use this to measure
    compile-time proxies through the real lowering pipeline.
    """
    b_arr = np.asarray(b)
    batch = b_arr.shape[0] if b_arr.ndim == 2 else 1
    ctx, _, _, _, _ = _build_program(matrix, b, config, batch=batch, **kwargs)
    return ctx.compile(optimize=optimize)


def solve(
    matrix: ModifiedCRS,
    b: np.ndarray,
    config,
    num_ipus: int = 1,
    tiles_per_ipu: int = 16,
    num_tiles: int | None = None,
    grid_dims=None,
    x0: np.ndarray | None = None,
    device: IPUDevice | None = None,
    blockwise_halo: bool = True,
    optimize: bool = True,
    backend: str = "sim",
    trace=None,
    wall_trace=None,
    metrics=None,
    on_progress=None,
    progress_every: int = 1,
    max_wall_seconds: float | None = None,
    inject_faults=None,
    resilience=None,
    cache=None,
) -> SolveResult:
    """Solve ``A x = b`` with the solver described by ``config`` on a
    simulated IPU device.

    ``b`` may be a single right-hand side ``(n,)`` or a batch ``(batch, n)``
    — a batched solve runs all RHS columns through *one* program with one
    halo exchange per iteration (``docs/solvers.md``), returning ``x`` of
    shape ``(batch, n)`` plus per-RHS ``batch_stats`` and
    ``relative_residuals``.  Batching requires a float32 cg/bicgstab config
    (identity/jacobi preconditioning) and is incompatible with
    ``inject_faults``/``resilience``.

    ``config`` is a dict / JSON string / path / bare solver name (see
    :mod:`repro.solvers.config`).  ``grid_dims`` enables the structured
    partitioner for stencil matrices.  ``optimize=False`` skips the graph
    compiler's optimization passes (the no-pass ablation baseline).
    ``backend="fast"`` executes numerics only (bit-identical solution,
    zero reported cycles); ``backend="fused"`` additionally dispatches the
    compiled program's fused whole-device kernels and populates
    ``SolveResult.kernel_counters`` with the launches of this solve alone
    (per-engine tallies, exact under concurrent solves) — see
    ``docs/runtime.md``.  A malformed ``b``/``x0`` raises a typed
    :class:`~repro.errors.ReproError` (:func:`validate_arrays`).

    ``trace`` (cycle-domain telemetry; sim backend only), ``wall_trace``
    (measured host wall-clock spans per launch, any backend) and
    ``metrics`` (a :class:`~repro.telemetry.MetricsRegistry` of
    counters/gauges/histograms) share one sink grammar
    (``docs/observability.md``): ``True`` collects into a fresh instance —
    returned as ``SolveResult.telemetry`` / ``.wall_telemetry`` /
    ``.metrics`` — a path additionally writes it there (a Chrome
    ``trace_event`` JSON; for metrics ``.json`` writes a JSON snapshot,
    anything else Prometheus text), and an instance records into itself.
    ``on_progress`` receives a :class:`~repro.solvers.SolveProgress` sample
    every ``progress_every`` recorded iterations.  All of them are
    observational: the solution, residual history, cycles and kernel
    counters are bit-identical to an unobserved run.

    ``max_wall_seconds`` is a cooperative wall-clock deadline
    (``docs/serving.md``), checked on *every* iteration of every solver in
    the config tree (nested inner solves and ``record_history=False`` loops
    included).  An exceeded budget cancels the solve mid-iteration, on any
    backend and through cache hits alike, with a typed
    :class:`~repro.errors.JobTimeoutError` carrying the partial
    :class:`~repro.solvers.SolveStats` record.

    ``inject_faults`` enables deterministic seeded fault injection
    (``docs/resilience.md``; requires the sim backend): a
    :class:`~repro.faults.FaultPlan`, dict, JSON path/string, or the
    compact spec grammar (e.g. ``"seed=7;bitflip:p=0.01,where=exchange"``).
    ``resilience`` enables detection and recovery: ``True``/``""`` for the
    default :class:`~repro.solvers.resilience.ResilienceConfig`, or a
    ``"key=value,..."`` string / dict of overrides.  Either one populates
    ``SolveResult.resilience`` with a
    :class:`~repro.solvers.resilience.ResilienceReport`.

    ``cache`` enables the structure-keyed compile cache
    (``docs/performance.md``): ``True`` for the process-wide
    :class:`~repro.solvers.session.ProgramCache`, or your own instance.  A
    hit rebinds ``b``/``x0`` and re-executes the cached program — no passes
    re-run, bit-identical solution *and* cycles.  An explicit ``device``
    disables caching.  Repeated-solve callers should prefer
    :class:`~repro.solvers.session.SolverSession`.
    """
    obs = _Observers(trace, wall_trace, metrics, on_progress, progress_every,
                     max_wall_seconds)
    req = _Request(
        matrix, b, config, x0, inject_faults, resilience, cache, device,
        num_tiles=num_tiles, optimize=optimize, backend=backend,
        layout=dict(num_ipus=num_ipus, tiles_per_ipu=tiles_per_ipu,
                    grid_dims=grid_dims, blockwise_halo=blockwise_halo),
    )
    return _assemble(req, obs, _run_with_recovery(req, obs))


# -- stage 1: normalize the request and its observers -----------------------------------

def validate_arrays(matrix, b, x0=None) -> np.ndarray:
    """The one request validator, shared by :func:`solve` and serve
    admission: a malformed ``b``/``x0`` fails here with a typed
    :class:`~repro.errors.ReproError`, never as an untyped numpy error deep
    in a run (or silently, as a too-long ``x0`` truncated by the host
    write).  Returns ``b`` as float64."""
    b_arr = np.asarray(b)
    if b_arr.ndim not in (1, 2):
        raise ReproError(
            f"b must be 1-D (n,) or batched 2-D (batch, n), got shape {b_arr.shape}")
    if b_arr.ndim == 2 and b_arr.shape[0] < 1:
        raise ReproError("batched b needs at least one right-hand side")
    if b_arr.shape[-1] != matrix.n:
        raise ReproError(f"b has {b_arr.shape[-1]} entries per right-hand side "
                         f"but the matrix has {matrix.n} rows")
    _check_values("b", b_arr)
    if x0 is not None:
        x0_arr = np.asarray(x0)
        if x0_arr.shape != b_arr.shape:
            raise ReproError(f"x0 shape {x0_arr.shape} must match b shape {b_arr.shape}")
        _check_values("x0", x0_arr)
    return np.asarray(b_arr, dtype=np.float64)


def _check_values(name: str, arr: np.ndarray) -> None:
    if arr.dtype.kind not in "fiu":
        raise ReproError(f"{name} must be real-numeric, got dtype {arr.dtype}")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ReproError(f"{name} contains non-finite values")


class _Request:
    """A validated :func:`solve` request: parsed fault plan and resilience
    spec, float64 right-hand side(s), and the cache to use."""

    def __init__(self, matrix, b, config, x0, inject_faults, resilience, cache,
                 device, *, num_tiles, optimize, backend, layout):
        from repro.faults import FaultPlan

        self.plan = FaultPlan.parse(inject_faults) if inject_faults is not None else None
        self.rconfig = ResilienceConfig.parse(resilience)
        self.b64 = validate_arrays(matrix, b, x0)
        self.batch = self.b64.shape[0] if self.b64.ndim == 2 else 1
        if self.batch > 1:
            # The resilience driver's checkpoint/restore and the fault
            # injector's corruption sites are written against single-RHS
            # shards; fail loudly instead of corrupting a batched solve.
            if self.plan is not None:
                raise ReproError("fault injection does not support batched solves (batch > 1)")
            if self.rconfig is not None:
                raise ReproError("resilience does not support batched solves (batch > 1)")
        self.pcache = resolve_cache(cache)
        if device is not None:
            # A caller-owned device would end up holding cache-owned
            # shards; every entry builds on a fresh device instead.
            self.pcache = None
        self.matrix, self.config, self.x0, self.device = matrix, config, x0, device
        self.num_tiles, self.optimize, self.backend = num_tiles, optimize, backend
        self.layout = layout  # num_ipus, tiles_per_ipu, grid_dims, blockwise_halo


def _sink(spec, cls):
    """The sink grammar of ``trace``/``wall_trace``/``metrics``: an instance
    records into itself, a path gets a fresh instance plus an export path,
    any other truthy value a fresh instance.  Returns ``(instance, path)``."""
    if isinstance(spec, cls):
        return spec, None
    if isinstance(spec, (str, Path)):
        return cls(), spec
    return (cls(), None) if spec else (None, None)


class _Observers:
    """Everything that watches a solve without changing it — cycle tracer,
    wall tracer, metrics, progress hook, deadline — and their exports."""

    def __init__(self, trace, wall_trace, metrics, on_progress, progress_every,
                 max_wall_seconds):
        from repro.telemetry import MetricsRegistry, Tracer, WallTracer

        self.t0 = time.perf_counter()
        self.tracer, self.trace_path = _sink(trace, Tracer)
        self.metrics, self.metrics_path = _sink(metrics, MetricsRegistry)
        self.wall, self.wall_path = _sink(wall_trace, WallTracer)
        if self.metrics is not None:
            # Metrics alone still want the per-kernel wall series; an
            # internal tracer feeds the registry (and the wall_profile).
            if self.wall is None:
                self.wall = WallTracer()
            if self.wall.metrics is None:
                self.wall.metrics = self.metrics
        self.on_progress = on_progress
        self.stride = max(1, int(progress_every))
        self.deadline = None if max_wall_seconds is None else float(max_wall_seconds)
        if self.deadline is not None and self.deadline <= 0:
            raise ReproError(f"max_wall_seconds must be > 0, got {max_wall_seconds!r}")

    def check_budget(self, iteration: int) -> None:
        """The one deadline check.  Installed as ``stats.tick`` on every
        solver in the tree, so the overshoot is bounded by one iteration;
        the error unwinds the engine mid-solve on any backend."""
        wall = time.perf_counter() - self.t0
        if self.deadline is not None and wall > self.deadline:
            raise JobTimeoutError(iteration=iteration, wall_seconds=wall,
                                  budget_seconds=self.deadline)

    def _gauges(self, *rows) -> None:
        for name, help_, value in rows:
            self.metrics.gauge(name, help_).set(value)

    def _progress(self, iteration: int, relative_residual: float, active: int) -> None:
        if iteration % self.stride:
            return
        if self.metrics is not None:
            self._gauges(
                ("repro_solve_iteration", "latest recorded iteration", iteration),
                ("repro_solve_relative_residual", "latest tracked relative residual",
                 relative_residual),
                ("repro_solve_active_columns", "RHS columns still iterating", active),
            )
        if self.on_progress is not None:
            wall = time.perf_counter() - self.t0
            self.on_progress(SolveProgress(iteration, relative_residual, wall, active))

    def attach(self, solver) -> None:
        """Hook a freshly acquired solver tree (after ``prepare()``, which
        clears the hooks), then bail if the build ate the whole budget."""
        if self.on_progress is not None or self.metrics is not None:
            solver.stats.progress = self._progress
        if self.deadline is not None:
            for member in solver.iter_tree():
                member.stats.tick = self.check_budget
            self.check_budget(solver.stats.total_iterations)

    def rollback(self, monitor, sig, cycle: int) -> None:
        """Roll ``monitor`` back to its checkpoint and trace the event."""
        rec = monitor.rollback(sig, cycle)
        if self.tracer is not None:
            self.tracer.instant("rollback", "fault", {
                "reason": rec.reason, "iteration": rec.iteration,
                "restored_iteration": rec.restored_iteration,
                "attempt": len(monitor.rollbacks)}, ts=cycle)

    def finish(self, backend: str, iterations: int, rel: float) -> float:
        """Write the wall trace and metrics; return the solve's wall seconds."""
        if self.wall_path is not None:
            self.wall.to_chrome(self.wall_path)
        wall_seconds = time.perf_counter() - self.t0
        if self.metrics is not None:
            self.metrics.counter("repro_solves_total", "completed solve() calls").inc(
                1, backend=backend)
            self._gauges(
                ("repro_solve_wall_seconds", "wall seconds of the last solve call",
                 wall_seconds),
                ("repro_solve_iterations", "iterations of the last solve", iterations),
                ("repro_solve_final_relative_residual", "true relative residual (f64)", rel),
            )
            if self.metrics_path is not None:
                self.metrics.write(self.metrics_path)
        return wall_seconds


# -- stage 2: acquire a program ----------------------------------------------------------

def _acquire(req: _Request, obs: _Observers, num_tiles, device, x0) -> CompiledSolve:
    """A cache hit rebound to ``b``/``x0``, or a fresh build and lowering
    (captured into the cache when one is active)."""
    pcache, entry = req.pcache, None
    if pcache is not None:
        key = fingerprint_solve(
            req.matrix, req.config, num_tiles=num_tiles, optimize=req.optimize,
            backend=req.backend, resilient=req.rconfig is not None, batch=req.batch,
            **req.layout)
        entry = pcache.get(key)
    if entry is None:
        monitor = ResilienceMonitor(req.rconfig) if req.rconfig is not None else None
        t_build = time.perf_counter()
        ctx, solver, xvec, bvec, built = _build_program(
            req.matrix, req.b64, req.config, num_tiles=num_tiles, device=device,
            # Under caching x0 is bound via prepare() below, so the
            # snapshotted initial image stays x0-free (x = 0).
            x0=None if pcache is not None else x0,
            monitor=monitor, batch=req.batch, **req.layout)
        compiled = ctx.compile(optimize=req.optimize)
        if pcache is None:
            return CompiledSolve(None, ctx, solver, xvec, bvec, built, compiled, monitor)
        entry = CompiledSolve.capture(key, ctx, solver, xvec, bvec, built, compiled,
                                      monitor=monitor,
                                      build_seconds=time.perf_counter() - t_build)
        pcache.put(key, entry)
    # Rebind host values into the cached artifact — no symbolic execution,
    # no compiler passes.
    entry.prepare(req.b64, x0=x0, rconfig=req.rconfig)
    if obs.tracer is not None:
        obs.tracer.instant("compile_cache", "compile", {
            "event": "hit" if entry.runs > 1 else "miss", **pcache.stats()}, ts=0)
    return entry


# -- stage 3: run with recovery ----------------------------------------------------------

@dataclass
class _Run:
    """What executing a request produced, across rollbacks and restarts."""

    program: CompiledSolve | None = None  # the attempt that finished
    injector: object = None
    aborted: str | None = None  # why the rollback budget ran out, if it did
    engines: list = field(default_factory=list)  # every engine launched
    monitors: list = field(default_factory=list)
    prior_records: list = field(default_factory=list)  # abandoned attempts' faults
    prior_cycles: int = 0
    restarts: int = 0
    carried_iterations: int = 0

    @property
    def kernel_counters(self) -> dict | None:
        """Summed over every engine of the solve; None off kernel backends."""
        tallies = [e.kernel_counters for e in self.engines]
        if tallies[-1] is None:
            return None
        return {k: sum(t[k] for t in tallies) for k in tallies[-1]}


def _solution(prog: CompiledSolve) -> np.ndarray:
    """``x`` in original row order — the extended-precision copy if kept."""
    x_ext = getattr(prog.solver, "x_ext", None)
    return (x_ext if x_ext is not None else prog.xvec).read_global()


def _run_with_recovery(req: _Request, obs: _Observers) -> _Run:
    """Acquire and execute the program, absorbing detected faults by
    rollback and SRAM overflows by rebuilding on fewer tiles."""
    from repro.faults import FaultInjector

    run = _Run()
    x0, num_tiles, device = req.x0, req.num_tiles, req.device
    disabled: set[str] = set()
    while True:
        prog = injector = None
        try:
            prog = _acquire(req, obs, num_tiles, device, x0)
            if req.plan is not None:
                injector = FaultInjector(req.plan, disabled=frozenset(disabled))
            obs.attach(prog.solver)
            engine = Engine(prog.compiled, backend=req.backend, tracer=obs.tracer,
                            injector=injector, wall_tracer=obs.wall)
            run.engines.append(engine)
            run.aborted = _execute(req, obs, prog, engine, injector)
        except JobTimeoutError as exc:
            # Fired inside the engine (or just before it): hand the caller
            # the partial convergence record with the typed error.
            exc.solver, exc.stats = prog.solver.name, prog.solver.stats.copy()
            raise
        except SRAMOverflowError:
            if req.rconfig is None or not req.rconfig.degrade_on_oom:
                raise
            have = num_tiles if num_tiles is not None else min(req.matrix.n, (
                device.num_tiles if device is not None
                else req.layout["num_ipus"] * req.layout["tiles_per_ipu"]))
            want = max(req.rconfig.min_tiles, have // 2)
            if want >= have:
                raise  # cannot shrink further — give up
            if prog is not None:
                run.prior_cycles += prog.device.profiler.total_cycles
                if obs.tracer is not None:
                    # The rebuild's fresh device clock restarts at zero;
                    # keep the trace timeline monotone.
                    obs.tracer.shift_clock(prog.device.profiler.total_cycles)
                if prog.monitor is not None:
                    run.monitors.append(prog.monitor)
                    # Warm-start the rebuild from the best checkpointed
                    # iterate instead of discarding converged progress.
                    warm_x, warm_it = prog.monitor.best_solution()
                    if warm_x is not None and warm_it > 0:
                        x0 = warm_x
                        run.carried_iterations += warm_it
            if injector is not None:
                run.prior_records.extend(injector.records)
            # Graceful degradation: rebuild on fewer, larger tiles (the
            # overflow is per-shard count / injected, not aggregate
            # capacity) on a fresh device, and don't re-fire injected OOMs.
            disabled.add("tile_oom")
            run.restarts += 1
            num_tiles, device = want, None
            continue
        if prog.monitor is not None:
            run.monitors.append(prog.monitor)
        run.program, run.injector = prog, injector
        return run


def _execute(req: _Request, obs: _Observers, prog: CompiledSolve, engine,
             injector) -> str | None:
    """Run the engine to completion, rolling back to the last checkpoint on
    each detected fault; returns why the rollback budget ran out, or None."""
    monitor = prog.monitor
    if monitor is not None:
        monitor.baseline()
    while True:
        try:
            engine.run()
        except RollbackSignal as sig:
            if not monitor.budget_left():
                monitor.restore_state()  # leave the best-known iterate in x
                return sig.reason
            obs.rollback(monitor, sig, prog.device.profiler.total_cycles)
            continue
        if monitor is None or injector is None:
            return None
        # Injected faults can corrupt a Krylov recurrence without tripping
        # any device-side check — the tracked residual converges while the
        # true residual does not.  A host-side miss is one more detection.
        tol = getattr(prog.solver, "tol", None)
        if tol is None:
            return None
        bn = np.linalg.norm(req.b64)
        resid = np.linalg.norm(req.matrix.spmv(_solution(prog)) - req.b64)
        if (float(resid / bn) if bn > 0 else 0.0) <= tol * 10:
            return None
        if prog.solver.classify_failure(engine) is not None:
            return None  # already failed for a named reason
        if not monitor.budget_left():
            return "silent_corruption"
        sig = RollbackSignal("silent_corruption", prog.solver.stats.total_iterations)
        obs.rollback(monitor, sig, prog.device.profiler.total_cycles)


# -- stage 4: assemble the result --------------------------------------------------------

def _true_residual(matrix, xj, bj) -> float:
    # Residual and normalization both in f64: a float32 ``norm(b)`` would
    # skew the reported relative residual near tight tolerances.
    resid = np.linalg.norm(matrix.spmv(xj) - bj)
    bn = np.linalg.norm(bj)
    return float(resid / bn) if bn > 0 else float(resid)


def _resilience_report(req: _Request, run: _Run, failure) -> ResilienceReport:
    solver = run.program.solver
    records = run.prior_records + (
        list(run.injector.records) if run.injector is not None else [])
    rollbacks = [rb for m in run.monitors for rb in m.rollbacks]
    iters_observed = sum(m.iterations_observed for m in run.monitors)
    iterations = solver.stats.total_iterations
    outcome = ("failed" if failure is not None else "degraded" if run.restarts
               else "recovered" if rollbacks else "clean")
    return ResilienceReport(
        enabled=req.rconfig is not None,
        outcome=outcome,
        failure=failure,
        faults_injected=len(records),
        faults_by_kind=dict(Counter(r.kind for r in records)),
        checkpoints=sum(m.checkpoints for m in run.monitors),
        rollbacks=len(rollbacks),
        rollback_reasons=[rb.reason for rb in rollbacks],
        restarts=run.restarts,
        iterations=iterations,
        extra_iterations=max(0, iters_observed - iterations) if run.monitors else 0,
        carried_iterations=run.carried_iterations,
        final_num_tiles=len(solver.A.tiles),
    )


def _assemble(req: _Request, obs: _Observers, run: _Run) -> SolveResult:
    """Residuals, failure classification, the resilience report, exports,
    metrics, and the :class:`SolveResult`."""
    prog, engine = run.program, run.engines[-1]
    solver, device = prog.solver, prog.device
    x = _solution(prog)
    if req.b64.ndim == 2 and x.ndim == 1:
        x = x.reshape(1, -1)  # a (1, n) batch runs the single-RHS program
    relative_residuals = None
    if req.batch > 1:
        relative_residuals = [
            _true_residual(req.matrix, x[j], req.b64[j]) for j in range(req.batch)]
        rel = max(relative_residuals)
    else:
        rel = _true_residual(req.matrix, np.ravel(x), np.ravel(req.b64))

    failure = run.aborted if run.aborted is not None else solver.classify_failure(engine)
    solver.stats.failure = failure
    report = None
    if req.rconfig is not None or req.plan is not None:
        report = _resilience_report(req, run, failure)
    if obs.tracer is not None:
        obs.tracer.convergence(solver.stats)
        if report is not None:
            obs.tracer.resilience(report)
        if obs.trace_path is not None:
            obs.tracer.to_chrome(obs.trace_path)
    if req.rconfig is not None and req.rconfig.raise_on_failure and failure is not None:
        if failure == "breakdown":
            raise SolverBreakdownError(
                f"{solver.name}: Krylov breakdown (|rho| ~ 0)", solver=solver.name,
                iteration=solver.stats.total_iterations)
        raise DivergenceError(
            f"{solver.name}: failed to reach tol={getattr(solver, 'tol', None)}",
            solver=solver.name, reason=failure)

    total_cycles = run.prior_cycles + device.profiler.total_cycles
    batch_stats = getattr(solver, "batch_stats", None)
    if batch_stats is not None and req.pcache is not None:
        batch_stats = [st.copy() for st in batch_stats]
    wall_seconds = obs.finish(engine.backend.name, solver.stats.total_iterations, rel)
    return SolveResult(
        x=x,
        # Detach the stats under caching: the next hit resets them in place.
        stats=solver.stats.copy() if req.pcache is not None else solver.stats,
        batch=req.batch,
        batch_stats=batch_stats,
        relative_residuals=relative_residuals,
        cycles=total_cycles,
        seconds=device.seconds(total_cycles),
        energy_j=device.energy_j(total_cycles),
        relative_residual=rel,
        profile=device.profiler.fractions(),
        engine=engine,
        solver=solver,
        compiled=prog.compiled,
        backend=engine.backend.name,
        telemetry=obs.tracer,
        resilience=report,
        kernel_counters=run.kernel_counters,
        wall_seconds=wall_seconds,
        wall_profile=obs.wall.profile() if obs.wall is not None else None,
        wall_telemetry=obs.wall,
        metrics=obs.metrics,
    )
