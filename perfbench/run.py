"""sidkit benchmark: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Run from the root of a sidkit checkout; the package is imported from its
``src`` directory.  The workload's inputs are generated from ``--seed``.
Set-up runs at least three times and for at least three seconds.  After any
untimed warm-up pass the workload asks for, whole passes run while another
is expected to fit in ``--seconds`` (at least one).
Every output is checked; a failed check or a non-zero CLI exit counts as a
failed operation.

``--trace 0`` reports the end-to-end metrics, the same four on every
workload:

- ``setup_s``: median set-up time (input generation; for decode also the
  tokenize and knn stages that build the served table);
- ``peak_rss_mb``: peak resident memory of this process;
- ``pipeline_s``: median time of one pass, the sum of its timed operations
  (CLI stages, library calls and queries, not the benchmark's checks);
- ``gini``: Gini of the workload's assignment over every possible SID.

The stage times, decode latencies, HR@K and rqvae loss are printed and
written to the result file, not reported as metrics.

``--trace 1`` runs an untraced pass, a pass with spans around sidkit's
public functions and, when the first pass was shorter than ``--seconds``,
an untraced reference pass; it reports the per-layer metrics (see
layers.py).  The traced pass minus the last untraced pass is the tracing
overhead.  Only this process is measured, with ``perf_counter`` and
``getrusage``; no system-wide profiler is used.

Details (stage medians, digests of inputs and artifacts, the environment,
the spans of a traced run) go to ``.perfbench_out/<workload>/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0  # cheap set-ups repeat until this much time is spent
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("build", "decode", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        blas = {"name": "unknown"}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "measured": "this process only (perf_counter, getrusage); no system-wide profiler",
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(workload, args, session, ledger, work: Path):
    """Run set-up until SETUP_REPEATS and SETUP_MIN_S are met (once when
    tracing); returns the set-up times and the last set-up's state."""
    times, digests = [], []
    while not times or not args.trace and (
            len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S):
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(args.seed, work, session)
        times.append(time.perf_counter() - t0)
        digests.append(state["world"].digests())
    ledger.check(all(d == digests[0] for d in digests), "set-up inputs differ between repeats")
    return times, state


def measure(workload, args, state, session, ledger):
    """Warm-up passes, untraced passes, and the traced pass when tracing.

    Returns (untraced passes, other checked passes, tracer or None).
    """
    import layers
    from tracer import Tracer

    def checked_pass():
        gc.collect()
        p = workload.run_pass(state, session)
        workload.check_pass(state, p, ledger)
        return p

    warmups = [checked_pass() for _ in range(workload.warmup_passes)]
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(checked_pass())
        spent = time.perf_counter() - started
        if args.trace or spent + statistics.median(p.total_s for p in passes) > args.seconds:
            break
    if not args.trace:
        return passes, warmups, None

    tracer = Tracer()
    layers.install(tracer, workload.trace_hooks(state))
    session.tracer = tracer
    try:
        traced = checked_pass()
    finally:
        tracer.uninstall()
        session.tracer = None
    # The reference pass should follow a warm-up pass, as the traced one does;
    # a first pass longer than --seconds serves as the reference itself.
    if passes[0].total_s < args.seconds:
        passes.append(checked_pass())
    return passes, warmups + [traced], tracer


def run(args) -> dict:
    # imported here, after main() has set the BLAS thread counts
    import layers
    from workloads import WORKLOADS, Ledger, Session

    workload = WORKLOADS[args.workload]
    out = ROOT / ".perfbench_out" / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ledger = Ledger()
    with open(out / "cli.log", "w", encoding="utf-8") as log:
        session = Session(ledger, log)
        setup_times, state = set_up(workload, args, session, ledger, out / "work")
        setup_quality = workload.check_setup(state, ledger)
        passes, others, tracer = measure(workload, args, state, session, ledger)
    for p in passes[1:] + others:
        ledger.check(p.digests == passes[0].digests, "artifacts differ between passes")
        ledger.check(p.quality == passes[0].quality, "quality figures differ between passes")

    quality = {**setup_quality, **passes[0].quality}
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "environment": environment(),
        "inputs_sha256": state["world"].digests(),
        "setup_s": setup_times,
        "last_setup_stage_s": {k: v for k, v in state.items() if k.endswith("_s")},
        "pass_s": [p.total_s for p in passes],
        "other_pass_s": [p.total_s for p in others],
        "stage_median_s": {name: statistics.median(p.stages[name] for p in passes)
                           for name in passes[0].stages},
        "quality": quality,
        "workload_figures": workload.report(passes),
        "artifacts_sha256": passes[0].digests,
        "failures": ledger.failures,
    }
    if tracer is not None:
        metrics = layers.per_layer(tracer, passes[-1].total_s)
        tracer.save(out / "spans.npz")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "pipeline_s": statistics.median(p.total_s for p in passes),
            "gini": quality["gini"],
        }
    detail["metrics"] = metrics
    (out / "result.json").write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
    for key in ("environment", "inputs_sha256", "artifacts_sha256", "stage_median_s",
                "last_setup_stage_s", "quality", "workload_figures", "failures"):
        print(f"{key}: {json.dumps(detail[key], sort_keys=True)}")

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not declared "
                           "exactly once in BENCHMARK.json")
    return {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "sidkit" / "__init__.py").is_file():
        print(f"perfbench: no sidkit sources under {src}", file=sys.stderr)
        return 2
    # thread counts are read when numpy loads, so they are set before any import
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
