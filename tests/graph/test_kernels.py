"""Tests for the kernel-lowering stage and the fused runtime backend.

Covers the lowering contract end to end: random expression graphs are
bit-identical between sim and fused (hypothesis), every solver family is
bit-identical, the CG inner loop lowers to a bounded number of kernel
launches (statically via :class:`KernelSchedule` and dynamically via the
engine's per-run ``kernel_counters``), the session cache keys fast and fused apart and
replays fused hits bit-identically, and both untimed backends reject the
observability hooks with the same typed error.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BackendCapabilityError
from repro.graph import Engine, FastBackend, FusedBackend
from repro.graph.passes import FusedKernel
from repro.machine import IPUDevice
from repro.solvers import SolverSession, compile_solve, solve
from repro.solvers.session import fingerprint_solve
from repro.sparse import poisson2d, poisson3d
from repro.sparse.distribute import DistributedMatrix
from repro.tensordsl import TensorContext, Type
from repro.tensordsl.tensor import Tensor

N = 24

CG = {"solver": "cg", "tol": 1e-8, "max_iterations": 60}

# -- hypothesis: random expression graphs ----------------------------------------------

leaf = st.sampled_from(
    [
        ("vector", Type.FLOAT32),
        ("vector", Type.DOUBLEWORD),
        ("vector", Type.FLOAT64),
        ("scalar", Type.FLOAT32),
        ("const", None),
    ]
)

binop = st.sampled_from(["+", "-", "*", "/"])
unop = st.sampled_from(["neg", "abs", "sqrt", None])


@st.composite
def expr_tree(draw, depth=0):
    if depth >= 3 or draw(st.booleans()) and depth > 0:
        return draw(leaf)
    return (
        "node",
        draw(binop),
        draw(expr_tree(depth=depth + 1)),
        draw(expr_tree(depth=depth + 1)),
        draw(unop),
    )


def build(tree, ctx, rng):
    """Materialize one random tree into a TensorDSL expression."""
    if tree[0] == "vector":
        data = rng.uniform(0.5, 2.0, N)  # positive: safe for / and sqrt
        return ctx.tensor((N,), dtype=tree[1], data=data)
    if tree[0] == "scalar":
        return ctx.scalar(float(rng.uniform(0.5, 2.0)))
    if tree[0] == "const":
        return float(rng.uniform(0.5, 2.0))
    _, op, lt, rt, u = tree
    le = build(lt, ctx, rng)
    re_ = build(rt, ctx, rng)
    if isinstance(le, float) and isinstance(re_, float):
        le = ctx.scalar(le)
    apply = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
             "*": lambda a, b: a * b, "/": lambda a, b: a / b}[op]
    e = apply(le, re_)
    if u == "neg":
        e = -e
    elif u == "abs":
        e = abs(e)
    elif u == "sqrt":
        e = (e * e).sqrt() if not isinstance(e, float) else e
    return e


@given(tree=expr_tree(), seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_random_expressions_fused_matches_sim(tree, seed):
    """Property: any random expression graph — mixed dtypes, broadcasts,
    dw kernels, plus a trailing reduction — evaluates bit-identically
    under the fused backend (same leaves, same schedule, two backends)."""
    if tree[0] != "node":
        return
    results = {}
    for backend in ("sim", "fused"):
        rng = np.random.default_rng(seed)
        ctx = TensorContext(IPUDevice(tiles_per_ipu=4))
        e = build(tree, ctx, rng)
        if not isinstance(e, Tensor):
            return
        out = e.materialize()
        total = out.reduce("sum").materialize()
        hi = out.norm_inf().materialize()
        ctx.run(backend=backend)
        results[backend] = (
            np.asarray(out.value()).copy(),
            np.asarray(total.value()).copy(),
            np.asarray(hi.value()).copy(),
        )
    for got, want in zip(results["fused"], results["sim"]):
        np.testing.assert_array_equal(got, want)


# -- solver bit-identity ---------------------------------------------------------------

@pytest.mark.parametrize(
    "config",
    [
        CG,
        {"solver": "bicgstab", "tol": 1e-8, "max_iterations": 60},
        {"solver": "mpir", "tol": 1e-10, "max_iterations": 8,
         "inner": {"solver": "cg", "tol": 1e-4, "max_iterations": 30}},
        {"solver": "cg", "tol": 1e-8, "max_iterations": 60,
         "preconditioner": {"solver": "ilu0"}},
    ],
    ids=["cg", "bicgstab", "mpir", "cg+ilu0"],
)
def test_solver_fused_bit_identical_to_sim(config):
    crs, dims = poisson3d(8)
    b = np.ones(crs.n)
    sim = solve(crs, b, config, grid_dims=dims, num_ipus=2, tiles_per_ipu=4,
                backend="sim")
    fused = solve(crs, b, config, grid_dims=dims, num_ipus=2, tiles_per_ipu=4,
                  backend="fused")
    np.testing.assert_array_equal(sim.x, fused.x)
    assert sim.relative_residual == fused.relative_residual
    assert sim.stats.total_iterations == fused.stats.total_iterations
    assert fused.kernel_counters is not None
    assert fused.kernel_counters["kernels"] > 0
    assert sim.kernel_counters is None


def test_spmv_with_halo_fused_matches_sim():
    """SpMV across IPU boundaries: the fused kernel's global column remap
    must reproduce the per-tile gather/compute path exactly."""
    crs, dims = poisson2d(12)
    results = {}
    for backend in ("sim", "fused"):
        device = IPUDevice(num_ipus=2, tiles_per_ipu=4)
        ctx = TensorContext(device)
        A = DistributedMatrix(ctx, crs, grid_dims=dims)
        rng = np.random.default_rng(3)
        x = A.vector(data=rng.standard_normal(crs.n))
        y = A.vector()
        A.spmv(x, y)
        ctx.run(backend=backend)
        results[backend] = y.read_global()
    np.testing.assert_array_equal(results["fused"], results["sim"])


def _uneven_reductions(backend, data, batch=1):
    """dot/max/min of a 13-row tensor over 4 tiles (unequal shard sizes)."""
    ctx = TensorContext(IPUDevice(tiles_per_ipu=4))
    t = ctx.tensor((data.shape[-1],), data=data, batch=batch)
    s = t.dot(t).materialize()
    m = t.max().materialize()
    lo = t.min().materialize()
    ctx.run(backend=backend)
    return [np.asarray(r.value()).copy() for r in (s, m, lo)]


def test_uneven_shards_reduce_fused_matches_sim():
    """Reductions over unequal per-tile segments take the per-slice path;
    it must agree with the tile-by-tile sim reduction bit for bit."""
    data = np.linspace(-2.0, 2.0, 13)
    for got, want in zip(_uneven_reductions("fused", data), _uneven_reductions("sim", data)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("batch", [3, 64])
def test_uneven_shards_batched_reduce_fused_matches_sim(batch):
    """The batched twin: every RHS column of a per-slice reduction agrees
    with the sim backend bit for bit, and with its own single-RHS run."""
    rng = np.random.default_rng(batch)
    data = rng.standard_normal((batch, 13)) * np.logspace(-3, 3, 13)
    data[0, 5] = -0.0
    fused = _uneven_reductions("fused", data, batch)
    for got, want in zip(fused, _uneven_reductions("sim", data, batch)):
        assert got.shape == (batch,)
        assert got.tobytes() == want.tobytes()
    for j in (0, batch - 1):
        solo = _uneven_reductions("sim", data[j])
        for got, want in zip(fused, solo):
            assert got[j].tobytes() == np.asarray(want).reshape(-1)[0].tobytes()


# -- kernel counts: static schedule + dynamic counters ---------------------------------

def test_cg_loop_lowers_to_bounded_kernel_count():
    """Static acceptance metric: the whole CG inner loop must lower to at
    most a handful of fused kernels per iteration — not one dispatch per
    compute set."""
    crs, dims = poisson3d(8)
    compiled = compile_solve(crs, np.ones(crs.n), CG, grid_dims=dims,
                             num_ipus=2, tiles_per_ipu=4)
    schedule = compiled.kernels
    per_iter = schedule.loop_kernel_count(compiled.root, "cg.iterate")
    assert 1 <= per_iter <= 5
    stats = schedule.stats()
    assert stats["kernels"] == schedule.n_kernels > 0
    assert stats["steps_fused"] > stats["kernels"]
    assert all(isinstance(k, FusedKernel) for k in schedule.kernels)


def test_cg_runtime_kernel_counters_bounded():
    """Dynamic twin of the static bound: the solve's kernel counters must
    report at most 5 launches per executed CG iteration (plus setup), and
    every launch and dispatch exactly once — checked against an independent
    count, the wall tracer's spans of the same solve."""
    crs, dims = poisson3d(8)
    res = solve(crs, np.ones(crs.n), CG, grid_dims=dims, num_ipus=2,
                tiles_per_ipu=4, backend="fused", wall_trace=True)
    kc = res.kernel_counters
    spans = [e for e in res.wall_telemetry.events
             if getattr(e, "cat", None) in ("kernel", "compute", "exchange")]
    assert kc["kernels"] == sum(1 for e in spans if e.cat == "kernel")
    assert kc["dispatches"] == len(spans)
    assert kc["kernels"] <= 5 * res.iterations + 10
    assert kc["dispatches"] >= kc["kernels"]
    assert kc["fused_compute_sets"] + kc["fused_exchanges"] > kc["kernels"]


def test_concurrent_fused_solves_report_their_solo_counters():
    """Kernel counters are per run: N threads (more than the host's cores)
    solving the same system at once each report exactly the counters of a
    solo solve.  A process-wide tally folded the other threads' launches
    into every result."""
    crs, dims = poisson3d(8)
    kw = dict(grid_dims=dims, num_ipus=2, tiles_per_ipu=4, backend="fused")
    b = np.ones(crs.n)
    solo = solve(crs, b, CG, **kw).kernel_counters
    n = 4
    barrier = threading.Barrier(n)

    def one(_):
        barrier.wait(timeout=60)
        return solve(crs, b, CG, **kw).kernel_counters

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' engine loops finely
    try:
        with ThreadPoolExecutor(max_workers=n) as pool:
            got = list(pool.map(one, range(n), timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert got == [solo] * n


def test_engine_statistics_parity_between_sim_and_fused():
    """The engine's superstep/exchange statistics must not change when
    blocks execute as fused kernels — the kernels' absorbed-step counts
    keep them in parity."""
    crs, dims = poisson3d(6)
    stats = {}
    for backend in ("sim", "fused"):
        engines = solve(crs, np.ones(crs.n), CG, grid_dims=dims,
                        tiles_per_ipu=4, backend=backend).engine
        stats[backend] = (engines.supersteps, engines.exchanges,
                         engines.host_callbacks, engines.loop_iterations)
    assert stats["fused"] == stats["sim"]


# -- typed capability guards -----------------------------------------------------------

@pytest.mark.parametrize("backend_cls", [FastBackend, FusedBackend],
                         ids=["fast", "fused"])
def test_untimed_backends_reject_observability_hooks(backend_cls):
    backend = backend_cls()
    with pytest.raises(BackendCapabilityError) as tr:
        backend.set_tracer(object())
    with pytest.raises(BackendCapabilityError) as inj:
        backend.set_fault_injector(object())
    for err in (tr.value, inj.value):
        assert isinstance(err, ValueError)  # legacy except-clauses keep working
        assert err.exit_code == 15
        assert err.backend == backend.name
    assert tr.value.capability == "tracer"
    assert inj.value.capability == "fault_injector"
    # The messages must name the rejecting backend and point at the
    # alternatives: sim for cycle-domain work, --wall-trace for timing.
    assert repr(backend.name) in str(tr.value)
    assert "sim" in str(tr.value) and "--wall-trace" in str(tr.value)
    assert repr(backend.name) in str(inj.value)
    assert "sim" in str(inj.value)
    # Detaching (None) stays a no-op for both hooks.
    backend.set_tracer(None)
    backend.set_fault_injector(None)
    # Wall tracing is the untimed backends' timing story: never rejected.
    assert hasattr(backend, "set_wall_tracer")


@pytest.mark.parametrize("backend", ["fast", "fused"])
def test_solve_rejects_trace_and_faults_on_untimed_backends(backend):
    crs, dims = poisson3d(6)
    with pytest.raises(BackendCapabilityError):
        solve(crs, np.ones(crs.n), CG, grid_dims=dims, tiles_per_ipu=4,
              backend=backend, trace=True)
    with pytest.raises(BackendCapabilityError):
        solve(crs, np.ones(crs.n), CG, grid_dims=dims, tiles_per_ipu=4,
              backend=backend, inject_faults="seed=1;bitflip:p=0.5")


# -- session cache ---------------------------------------------------------------------

def test_fingerprint_distinguishes_fast_from_fused():
    crs, _ = poisson3d(6)
    keys = {
        backend: fingerprint_solve(crs, CG, backend=backend)
        for backend in ("sim", "fast", "fused")
    }
    assert len(set(keys.values())) == 3


def test_fused_session_cache_hit_replays_bit_identically():
    crs, dims = poisson3d(6)
    rng = np.random.default_rng(11)
    b = rng.standard_normal(crs.n)
    session = SolverSession(crs, CG, grid_dims=dims, tiles_per_ipu=4,
                            backend="fused")
    first = session.solve(b)
    hit = session.solve(b)
    assert session.stats()["hits"] == 1 and session.stats()["misses"] == 1
    np.testing.assert_array_equal(hit.x, first.x)
    assert hit.kernel_counters == first.kernel_counters
    # The cached fused replay also matches a cold sim solve bit for bit.
    sim = solve(crs, b, CG, grid_dims=dims, tiles_per_ipu=4, backend="sim")
    np.testing.assert_array_equal(hit.x, sim.x)
    assert hit.relative_residual == sim.relative_residual


def test_warm_fused_batched_cg_makes_no_per_column_reductions(monkeypatch):
    """Every batched reduction of a warm fused B=64 CG solve — vectorized
    groups and combine fallback vertices alike — goes through the column
    helper: the single-value ``_reduce_value`` is never called."""
    import repro.tensordsl.materialize as materialize

    crs, dims = poisson3d(6)
    bs = np.random.default_rng(5).standard_normal((64, crs.n))
    session = SolverSession(crs, CG, grid_dims=dims, num_ipus=2, tiles_per_ipu=4,
                            backend="fused")
    cold = session.solve(bs)
    calls = []
    real = materialize._reduce_value
    monkeypatch.setattr(materialize, "_reduce_value",
                        lambda *args: calls.append(args) or real(*args))
    warm = session.solve(bs)
    assert calls == []
    np.testing.assert_array_equal(warm.x, cold.x)
    # The wrapper is live: a single-RHS sim solve reduces through it.
    solve(crs, bs[0], CG, grid_dims=dims, num_ipus=2, tiles_per_ipu=4, backend="sim")
    assert calls


# -- schedule plumbing -----------------------------------------------------------------

def test_compiled_program_carries_kernel_schedule():
    crs, dims = poisson3d(6)
    compiled = compile_solve(crs, np.ones(crs.n), CG, grid_dims=dims,
                             tiles_per_ipu=4)
    assert compiled.kernels is not None
    assert compiled.kernels.n_kernels > 0
    # Only kernel-dispatch backends consume the schedule.
    engine = Engine(compiled, backend="fused")
    assert engine._kernel_schedule is compiled.kernels
    device_bound = Engine(compiled, backend="fast")
    assert device_bound._kernel_schedule is None
