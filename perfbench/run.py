"""Benchmark of arsurvival's public entry points, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from ``--seed``, repeats passes over it for about
``--seconds`` seconds and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics (medians over passes); ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones.  The line before it holds the machine facts, the failure
fraction and the pass counts.  Run files and spans go to ``.perfbench/``.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 5
MIN_PASSES = 5          # untraced passes per run
MIN_PAIRS = 2           # untraced/traced pass pairs per traced run
SETUP_CODE = """\
import sys, time
t = time.perf_counter()
sys.path.insert(0, "src")
import arsurvival.cli
arsurvival.cli.build_parser()
print(time.perf_counter() - t)
"""


def import_program():
    """Import arsurvival from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "arsurvival" / "__init__.py").is_file():
        sys.exit(f"error: no arsurvival sources under {src}")
    sys.path.insert(0, str(src))
    import arsurvival
    if Path(arsurvival.__file__).resolve().parent != src / "arsurvival":
        sys.exit(f"error: arsurvival imported from {arsurvival.__file__}")
    return arsurvival


def setup_seconds() -> float:
    """Fresh interpreters' import of arsurvival plus the CLI parser.

    The median of SETUP_RUNS timings, in reference seconds: the calibration
    kernel runs before and after each interpreter.
    """
    from workloads import CAL_REF_S, calibrate

    runs, cals = [], [calibrate()]
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=120)
        runs.append(float(out.stdout.strip().splitlines()[-1]))
        cals.append(calibrate())
    return statistics.median(runs) * CAL_REF_S / statistics.median(cals)


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def machine_facts(arsurvival) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "arsurvival": arsurvival.__version__,
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(bench, seconds: float) -> tuple[dict, list, dict]:
    """Untraced passes with a 2-worker scaling step between each two of them.

    Pass times are medians in reference seconds (see workloads.calibrate).
    Each scaling step is set against the mean raw time of the passes just
    before and after it, which share the machine's speed; the efficiency is
    the median of those ratios.
    """
    from workloads import run_ops

    start = time.perf_counter()
    passes, steps_2w = [run_ops(bench.ops())], []
    while True:
        upcoming = statistics.median(r.wall for r in passes)
        if steps_2w:
            upcoming += statistics.median(r.wall for r in steps_2w)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + upcoming > seconds:
            break
        steps_2w.append(bench.scale())
        passes.append(run_ops(bench.ops()))
    effs = [bench.efficiency((a.wall + b.wall) / 2.0, two.wall)
            for a, b, two in zip(passes, passes[1:], steps_2w)]
    ref = statistics.median(r.ref_wall for r in passes)
    path_steps = passes[0].path_steps
    metrics = {
        "wall_ref_s": metric(ref, "s"),
        "path_steps_per_ref_s": metric(path_steps / ref, "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "scaling_eff_2w": metric(statistics.median(effs), "ratio"),
    }
    info = {"passes": len(passes), "wall_s": statistics.median(r.wall for r in passes),
            "wall_s_all": [r.wall for r in passes],
            "wall_ref_s_all": [r.ref_wall for r in passes],
            "scaling_wall_s_all": [r.wall for r in steps_2w],
            "scaling_eff_2w_all": effs,
            "path_steps_per_pass": path_steps}
    return metrics, passes + steps_2w, info


def measure_traced(bench, seconds: float) -> tuple[dict, list, dict]:
    """Untraced and traced passes in turn; per-layer figures of the traced ones."""
    from workloads import run_ops

    results, plain, traced, layer_runs, span_dump = [], [], [], [], []
    absent, missing = [], []
    start = time.perf_counter()
    while True:
        res = run_ops(bench.ops())
        plain.append(res.wall)
        with spans.Tracer(spans.LAYERS) as tracer:
            tres = run_ops(bench.ops())
        traced.append(tres.wall)
        results += [res, tres]
        layer_runs.append(spans.layer_metrics(tracer.spans, tres.path_steps))
        span_dump.append([s.as_list() for s in tracer.spans])
        absent, missing = tracer.absent, tracer.missing
        elapsed = time.perf_counter() - start
        if len(traced) >= MIN_PAIRS and elapsed + plain[-1] + traced[-1] > seconds:
            break
    metrics = {name: metric(statistics.median(r[name] for r in layer_runs), unit)
               for name, unit in spans.UNITS.items() if name in layer_runs[0]}
    metrics["trace.overhead_s"] = metric(statistics.median(traced) - statistics.median(plain), "s")
    info = {"pairs": len(traced), "absent_layers": absent, "missing_targets": missing,
            "untraced_wall_s": plain, "traced_wall_s": traced, "spans": span_dump}
    return metrics, results, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    arsurvival = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = workloads.WORKLOADS[args.workload](args.seed, work)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            bench.warm()
            if args.trace:
                metrics, results, info = measure_traced(bench, args.seconds)
            else:
                metrics, results, info = measure(bench, args.seconds)
                metrics["setup_s"] = metric(setup_seconds(), "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for failure in (f for r in results for f in r.failures):
        print(f"FAILED {failure}", file=sys.stderr)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "machine": machine_facts(arsurvival), "workload_facts": bench.facts,
               "ops_failed_frac": failed / attempted}
    summary.update({k: v for k, v in info.items() if k != "spans"})
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({**summary, "result": line,
                                            "spans": info.get("spans")}) + "\n")
    print(json.dumps(summary))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
