"""Open-loop workloads: seeded arrivals into one ``SolverService``.

Jobs arrive on a schedule whatever the service does, so its queue can
grow.  The arrival generator runs on the service's own event loop; each
job is timed from the moment it was *due*, so a generator stall shows up
as latency of the jobs behind it, and the generator's own lateness is
reported as ``loadgen.lag_ms_p99``.

Tenants (one structure each, except ``remesh``):

- ``cfd``: batchable CG on one poisson3d:16 structure (cache hits);
- ``circuit``: MPIR-dw around ILU(0)-BiCGStab on ``g3_circuit_like``,
  never batchable, heavy in double-word arithmetic and fallback vertices;
- ``remesh``: CG on a structure drawn fresh for every job, so each one
  misses the cache and compiles on the request path.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np
from repro.errors import QuotaExceededError, ReproError, ServiceOverloadError

import layers
from common import (
    SETUPS,
    RhsStream,
    Spans,
    assign_lanes,
    check_identical,
    check_residuals,
    host_solve_ms,
    median,
    percentile,
    tail,
    working_set_bytes,
)
from systems import circuit_system, poisson_system

WORKERS = 2
MAX_BATCH = 8
MAX_QUEUE_DEPTH = 16
#: Latency limit per tenant: a job counts in goodput only within it.
LIMIT_S = {"cfd": 3.0, "circuit": 10.0, "remesh": 5.0}
#: Admission errors that shed a job (the service's designed overload path).
SHED_ERRORS = (ServiceOverloadError, QuotaExceededError)


@dataclass
class Spec:
    """One generated job: when it is due, whose it is, what it solves."""

    index: int
    due: float  # seconds after the window opens
    tenant: str
    system: object
    b: np.ndarray


@dataclass
class Record:
    """What happened to one job."""

    spec: Spec
    submit: float = 0.0  # loop clock, seconds
    admit_s: float = 0.0
    done: float | None = None
    outcome: str = "pending"  # ok | shed | error
    result: object = None  # JobResult
    error: str = ""


def make_jobs(seed: int, seconds: float, rate: float, mix: dict,
              cfd, circuit) -> list[Spec]:
    """Seeded open-loop schedule.

    ``round(rate * seconds)`` arrivals at sorted uniform times in the
    window - a Poisson process conditioned on its count, so every seed
    offers the same load.  Tenant counts are fixed by ``mix`` and their
    order is shuffled by the seed; every job gets its own right-hand side,
    and every ``remesh`` job its own never-repeated grid.
    """
    rng = np.random.default_rng([seed, 11])
    n = max(1, round(rate * seconds))
    due = np.sort(rng.uniform(0.0, seconds, n))
    tenants = []
    for name, share in mix.items():
        tenants += [name] * round(share * n)
    tenants = (tenants + ["cfd"] * n)[:n]
    rng.shuffle(tenants)
    grids = [(x, y, z) for x in range(12, 21) for y in range(12, 21)
             for z in range(12, 21) if (x, y, z) != (16, 16, 16)]
    picks = iter(rng.permutation(len(grids)))
    specs = []
    for i, (t, tenant) in enumerate(zip(due, tenants)):
        if tenant == "cfd":
            system = cfd
        elif tenant == "circuit":
            system = circuit
        else:
            nx, ny, nz = grids[next(picks)]
            system = poisson_system("remesh", nx, num_ipus=1, ny=ny, nz=nz)
        b = rng.standard_normal(system.n).astype(np.float32)
        specs.append(Spec(i, float(t), tenant, system, b))
    return specs


async def _start_service(cfd, circuit, warm_seed: int):
    """Start a service on a fresh cache and warm it: the cfd programs at
    every width the batcher can dispatch, and the circuit program when the
    workload has that tenant (``circuit`` is None otherwise)."""
    from repro.serve import BatchPolicy, ServicePolicy, SolverService
    from repro.solvers import ProgramCache, SolverSession

    policy = ServicePolicy(max_queue_depth=MAX_QUEUE_DEPTH,
                           batch=BatchPolicy(max_batch=MAX_BATCH, max_wait_ms=2.0))
    svc = SolverService(policy=policy, workers=WORKERS, cache=ProgramCache(capacity=64))
    await svc.start()
    loop = asyncio.get_running_loop()
    warm = RhsStream(warm_seed, cfd.n, MAX_BATCH, stream=21).next()
    if circuit is not None:
        warm_circuit = RhsStream(warm_seed, circuit.n, 1, stream=22).next()

    def warm_programs():
        session = SolverSession(cfd.crs, cfd.config, cache=svc.cache, **cfd.kwargs())
        width = 1
        while width <= MAX_BATCH:
            session.solve(warm[0] if width == 1 else warm[:width])
            width *= 2
        if circuit is not None:
            SolverSession(circuit.crs, circuit.config, cache=svc.cache,
                          **circuit.kwargs()).solve(warm_circuit)

    await loop.run_in_executor(None, warm_programs)
    await svc.solve(cfd.crs, warm[0], cfd.config, tenant="warmup", **cfd.kwargs())
    return svc


async def _serve(specs, seconds: float, cfd, circuit, seed: int, spans):
    """Set up a service, run the schedule through it, drain it.  The
    timed window runs from the first arrival to the last result."""
    t0 = time.perf_counter()
    svc = await _start_service(cfd, circuit, seed)
    setup_s = time.perf_counter() - t0
    loop = asyncio.get_running_loop()
    start = loop.time()
    wt0 = spans.now() if spans is not None else 0
    records = [Record(s) for s in specs]
    futures = []
    for rec in records:
        delay = start + rec.spec.due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        rec.submit = loop.time()
        sys_ = rec.spec.system
        try:
            job = svc.submit(sys_.crs, rec.spec.b, sys_.config, tenant=rec.spec.tenant,
                             **sys_.kwargs())
        except ReproError as exc:  # typed admission errors
            rec.admit_s = loop.time() - rec.submit
            rec.done = loop.time()
            rec.outcome = "shed" if isinstance(exc, SHED_ERRORS) else "error"
            rec.error = repr(exc)
            continue
        rec.admit_s = loop.time() - rec.submit
        job.future.add_done_callback(lambda f, r=rec: _finish(r, f, loop.time()))
        futures.append(job.future)
    await asyncio.gather(*futures, return_exceptions=True)
    first = start + min(s.due for s in specs)
    end = max([first] + [r.done for r in records if r.done])
    await svc.stop(drain=True)
    acc = svc.accounting()
    cache = svc.cache.stats()
    if spans is not None:
        _job_spans(spans, records, start, wt0)
    return records, {"setup_s": setup_s, "start": start, "window_s": end - first,
                     "accounting": acc, "cache": cache}


def _finish(rec: Record, future, now: float) -> None:
    rec.done = now
    if future.cancelled():
        rec.outcome, rec.error = "error", "cancelled"
    elif future.exception() is not None:
        rec.outcome, rec.error = "error", repr(future.exception())
    else:
        rec.outcome, rec.result = "ok", future.result()


def _job_spans(spans: Spans, records, start: float, wt0: int) -> None:
    """Per-job spans from the loop clock and the ``JobResult`` split:
    job (due -> result) over admit, queue, exec and dispatch overhead."""
    def ns(t: float) -> int:
        return wt0 + int((t - start) * 1e9)

    done = [r for r in records if r.done is not None]
    lanes = assign_lanes([(ns(start + r.spec.due), ns(r.done)) for r in done])
    for rec, lane in zip(done, lanes):
        due, end = ns(start + rec.spec.due), ns(rec.done)
        job = spans.add("job", due, end, req=rec.spec.index, lane=1 + lane,
                        tenant=rec.spec.tenant, outcome=rec.outcome)
        t = ns(rec.submit)
        spans.add("admit", t, min(end, t + int(rec.admit_s * 1e9)), parent=job,
                  req=rec.spec.index, lane=1 + lane)
        jr = rec.result
        if jr is None:
            continue
        t = min(end, t + int(rec.admit_s * 1e9))
        overhead = max(0.0, jr.total_seconds - jr.queue_seconds - jr.exec_seconds)
        for name, sec in (("queue", jr.queue_seconds), ("exec", jr.exec_seconds),
                          ("overhead", overhead)):
            stop = min(end, t + int(sec * 1e9))
            spans.add(name, t, stop, parent=job, req=rec.spec.index, lane=1 + lane,
                      batch_size=jr.batch_size)
            t = stop


def _latency_ms(rec: Record, start: float) -> float:
    return (rec.done - (start + rec.spec.due)) * 1e3


def open_loop(run, rate: float, mix: dict, seconds: float, trace: bool, spans,
              shed_is_failure: bool) -> None:
    """Run either serve workload."""
    from repro.solvers import solve

    cfd = poisson_system("poisson3d:16", 16, num_ipus=2)
    circuit = circuit_system() if "circuit" in mix else None
    specs = make_jobs(run.seed, seconds, rate, mix, cfd, circuit)
    run.report["working_set_bytes"] = working_set_bytes(cfd.crs, MAX_BATCH)

    setups = []
    for _ in range(SETUPS - 1):
        setups.append(asyncio.run(_setup_only(cfd, circuit, run.seed)))
    records, info = asyncio.run(_serve(specs, seconds, cfd, circuit, run.seed, None))
    setups.append(info["setup_s"])
    run.e2e["setup_s"] = median(setups)
    summary = _summarize(run, records, info, shed_is_failure)

    # Reference units, re-solved directly with their effective config
    # (single-threaded, service gone, so kernel counters are exact): the
    # first served job of each fixed-structure tenant, whose counts must
    # repeat, and the first job served inside a batch, if any formed.
    fixed = [t for t in ("cfd", "circuit") if t in mix]
    samples = {t: next((r for r in records if r.spec.tenant == t and r.outcome == "ok"),
                       None) for t in fixed}
    samples["batched"] = next((r for r in records if r.outcome == "ok"
                               and r.result.batch_size > 1), None)
    refs = {}
    for label, rec in samples.items():
        if rec is None:
            if label != "batched":
                run.fail(f"no {label} job was served")
            continue
        sys_ = rec.spec.system
        direct = solve(sys_.crs, rec.spec.b, rec.result.effective_config, **sys_.kwargs())
        check_identical(run, rec.result.result.x, direct.x,
                        f"served {rec.spec.tenant} job {rec.spec.index} "
                        f"(batch width {rec.result.batch_size}) vs direct solve()")
        refs[label] = (rec, direct)
    if "cfd" in refs:
        cfd_direct = refs["cfd"][1]
        run.expect_counts("untraced", {
            "solvers.iterations": int(cfd_direct.iterations),
            "compile.loop_kernels": layers.loop_kernels(cfd_direct.compiled),
            "sparse.halo_bytes_per_iter": layers.halo_bytes_per_iter(cfd, MAX_BATCH),
            "compile.fallback_vertices": sum(
                int(refs[t][1].kernel_counters["fallback_vertices"])
                for t in fixed if t in refs),
        })
    cfd_b = refs["cfd"][0].spec.b if "cfd" in refs else specs[0].b
    run.report["baselines.host_solve_ms"] = host_solve_ms(cfd.csr, cfd_b, cfd.tol)

    if not trace:
        return
    with spans.span("window.traced"):
        traced, tinfo = asyncio.run(_serve(specs, seconds, cfd, circuit, run.seed, spans))
    tsummary = _summarize(run, traced, tinfo, shed_is_failure, record=False)
    layer = run.layer
    layer.update(run.counts)
    layer["trace.overhead_frac"] = tsummary["cfd_p50"] / summary["cfd_p50"] - 1.0
    for key in ("serve.exec_ms_p50", "serve.batch_width_mean", "serve.shed_frac",
                "serve.cache_hit_ratio"):
        layer[key] = summary[key]
    for key in ("serve.admit_ms_p50", "serve.queue_wait_ms_p50",
                "serve.dispatch_overhead_ms_p50", "loadgen.lag_ms_p99"):
        run.report[key] = summary[key]

    from repro.solvers import SolverSession

    session = SolverSession(cfd.crs, cfd.config, **cfd.kwargs())
    session.solve(cfd_b)
    split = []
    with spans.span("probe.kernel_split"):
        for _ in range(5):
            with spans.span("solve"):
                split.append(layers.traced_solve(
                    lambda **kw: session.solve(cfd_b, **kw), spans.wt)[1:])
    layer["runtime.kernel_ms"] = median([s[0] for s in split])
    layer["solvers.call_overhead_ms"] = median([s[1] for s in split])
    layers.common_probes(run, cfd, MAX_BATCH, cfd_b, spans)


async def _setup_only(cfd, circuit, seed: int) -> float:
    t0 = time.perf_counter()
    svc = await _start_service(cfd, circuit, seed)
    dt = time.perf_counter() - t0
    await svc.stop()
    return dt


def _summarize(run, records, info, shed_is_failure: bool, record: bool = True) -> dict:
    """End-to-end and serve-layer figures of one window.  Failed checks
    always fail ``run``; with ``record`` the window also sets its
    attempted and failed units, end-to-end metrics and report."""
    start, window_s = info["start"], info["window_s"]
    acc = info["accounting"]
    lat = {t: [] for t in LIMIT_S}
    good = 0  # served correctly within the tenant's limit
    correct = 0
    failed = 0
    for rec in records:
        sys_ = rec.spec.system
        if rec.outcome == "ok":
            ok = check_residuals(run, sys_.csr, rec.result.result.x, rec.spec.b,
                                 sys_.tol, f"{rec.spec.tenant} job {rec.spec.index}",
                                 units=0)
            ms = _latency_ms(rec, start)
            lat[rec.spec.tenant].append(ms)
            good += ok and ms <= LIMIT_S[rec.spec.tenant] * 1e3
            correct += ok
            failed += not ok
        elif rec.outcome == "error" or shed_is_failure:
            failed += 1
            run.fail(f"{rec.spec.tenant} job {rec.spec.index}: {rec.outcome} {rec.error}")
    shed = sum(r.outcome == "shed" for r in records)
    cfd_ok = [r.result for r in records if r.spec.tenant == "cfd" and r.outcome == "ok"]
    lags = [(r.submit - (start + r.spec.due)) * 1e3 for r in records]
    out = {
        "cfd_p50": median(lat["cfd"]),
        "serve.exec_ms_p50": median([j.exec_seconds * 1e3 for j in cfd_ok]),
        "serve.queue_wait_ms_p50": median([j.queue_seconds * 1e3 for j in cfd_ok]),
        "serve.dispatch_overhead_ms_p50": median(
            [(j.total_seconds - j.queue_seconds - j.exec_seconds) * 1e3 for j in cfd_ok]),
        "serve.admit_ms_p50": median([r.admit_s * 1e3 for r in records]),
        "serve.batch_width_mean": float(np.mean([j.batch_size for j in cfd_ok]))
        if cfd_ok else 0.0,
        "serve.shed_frac": acc["rejected"] / max(1, acc["submitted"]),
        "serve.cache_hit_ratio": info["cache"]["hits"]
        / max(1, info["cache"]["hits"] + info["cache"]["misses"]),
        "loadgen.lag_ms_p99": percentile(lags, 99),
    }
    if not acc["balanced"] or acc["worker_faults"]:
        run.fail(f"service ledger: balanced={acc['balanced']} "
                 f"worker_faults={acc['worker_faults']}")
    if not record:
        return out
    run.attempted = len(records)
    run.failed += failed
    tail_ms, tail_label, n = tail(lat["cfd"])
    run.e2e["throughput_per_s"] = good / window_s
    run.e2e["latency_p50_ms"] = out["cfd_p50"]
    run.e2e["latency_tail_ms"] = tail_ms
    run.report.update(
        latency_tail=f"{tail_label} of {n} cfd jobs",
        jobs=len(records), served=sum(len(v) for v in lat.values()), shed=shed,
        fail_frac=1.0 - correct / max(1, len(records)),
        batches=acc["batches"], window_s=window_s,
        width8_jobs=sum(j.batch_size == MAX_BATCH for j in cfd_ok),
    )
    for tenant in ("circuit", "remesh"):
        if lat[tenant]:
            run.report[f"{tenant}_p50_ms"] = median(lat[tenant])
    return out


# -- the two workloads -------------------------------------------------------------------

#: Offered rates (jobs/s), fixed for the host in README.md.  The cfd
#: structure's unbatched service capacity there is about 24 jobs/s; the
#: steady rate stays well below the point (about 5 jobs/s with this mix)
#: where width-2..8 batches start to form and, being slower per job than
#: single solves on the fused backend today, tip the service into backlog.
STEADY_RATE = 3.0
PEAK_RATE = 36.0


def serve_steady(run, seconds: float, trace: bool, spans) -> None:
    """Poisson arrivals below capacity: cfd 75%, circuit 15%, remesh 10%."""
    open_loop(run, STEADY_RATE, {"cfd": 0.75, "circuit": 0.15, "remesh": 0.10},
              seconds, trace, spans, shed_is_failure=True)


def serve_peak(run, seconds: float, trace: bool, spans) -> None:
    """``cfd`` arrivals at 1.5x the structure's unbatched capacity.

    The circuit tenant is left out here.  Circuit jobs serialize on their
    structure's lock at about 0.5 s each, so at the ~15% share of
    serve-steady and any rate that overloads cfd, circuit work alone
    exceeds a worker: the queue fills with circuit jobs (measured with a
    1 s circuit job and 10 jobs/s offered: cfd p50 3.8 s, goodput 0.3
    jobs/s) and the workload would measure that clog instead of admission
    and batching of the hot structure."""
    open_loop(run, PEAK_RATE, {"cfd": 1.0}, seconds, trace, spans,
              shed_is_failure=False)
