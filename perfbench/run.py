"""The repository benchmark: one command, four named workloads.

    python3 perfbench/run.py --workload cg-batch64 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is one JSON object
holding every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1``
it holds every per-layer metric instead (the run splits ``--seconds``
between an untraced and a traced window), and the run also writes a
Chrome trace (benchmark spans beside the program's kernel spans) to
``perfbench/out/``.  Every output is checked; a failed check prints
``"correct": false`` and exits 1.  ``README.md`` says why each workload
exists and which layer each metric measures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = ROOT / "BENCHMARK.json"


def _import_program() -> None:
    """Make ``repro`` importable from the checkout's source tree."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src} (run from a checkout root)")
    sys.path.insert(0, str(src))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import closed
    import openloop
    from common import (
        OUT_DIR,
        Run,
        Spans,
        check_counts_across_runs,
        environment,
        llc_bytes,
        peak_rss_mb,
    )

    workloads = {
        "cg-stream": closed.cg_stream,
        "cg-batch64": closed.cg_batch64,
        "serve-steady": openloop.serve_steady,
        "serve-peak": openloop.serve_peak,
    }
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    contract = json.loads(CONTRACT.read_text())
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    wanted = [m["name"] for m in contract["per_layer" if args.trace else "end_to_end"]]

    spans = None
    if args.trace:
        from repro.telemetry import WallTracer

        spans = Spans(WallTracer())
    run = Run(args.workload, args.seed)
    t0 = time.perf_counter()
    # A traced run splits its measuring time between the untraced and the
    # traced window.
    seconds = args.seconds / 2 if args.trace else args.seconds
    workloads[args.workload](run, seconds, bool(args.trace), spans)
    run.e2e["peak_rss_mb"] = peak_rss_mb()
    check_counts_across_runs(run)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if spans is not None:
        errors = spans.export(OUT_DIR / f"{stem}.trace.json")
        for e in errors[:5]:
            run.fail(f"trace: {e}")
    env = environment()
    llc = llc_bytes(env)
    ws = run.report.get("working_set_bytes")
    if llc and ws:
        run.report["working_set_vs_llc"] = ws / llc

    values = run.layer if args.trace else run.e2e
    missing = [name for name in wanted if name not in values]
    if missing:
        run.fail(f"metrics not measured: {missing}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": time.perf_counter() - t0, "env": env,
        "end_to_end": run.e2e, "per_layer": run.layer, "report": run.report,
        "counts": run.counts, "problems": run.problems,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# env: {json.dumps(env)}")
    for section in (run.e2e, run.layer, run.report):
        for name in sorted(section):
            value = section[name]
            unit = units.get(name, "")
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"{name:34s} {shown} {unit}".rstrip())
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")

    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": int(max(1, run.attempted)),
        "failed": int(run.failed),
        "metrics": {name: {"value": values.get(name), "unit": units[name]}
                    for name in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
