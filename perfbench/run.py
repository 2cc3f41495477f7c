"""Benchmark for mahlerzeta: end-to-end and per-layer metrics of four workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite|mahler|walks|cli --seed N \
        --seconds S --trace 0|1

The library is imported from ``src/`` next to this directory; without it the
run exits with code 2 before printing a result.  One run:

1. pins the BLAS thread count (1, or nproc for ``cli``) before numpy loads;
2. times the set-up (importing mahlerzeta and warming its lazy constants)
   in fresh interpreters, several times, and keeps the median;
3. builds the workload's inputs from the seed and their exact oracles;
4. runs passes of the workload for about ``--seconds`` seconds (at least
   one).  With ``--trace 1`` untraced and traced passes alternate, the
   traced ones under the per-layer wrappers of ``tracer.py``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  The line before it is
a report: platform, pass counts, all end-to-end values with units including
``fail_ratio``, and with ``--trace 1`` the tracing overhead and the
cost-against-accuracy rows.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter, process_time

# neither imports numpy, so the BLAS pin below still comes first
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_RUNS = 7
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MZ_MODULES = ("quadrature", "laurent", "mahler", "zeta", "walk", "coins",
              "correspondence", "cli")
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import mahlerzeta\n"
    "mahlerzeta.special_constants()\n"
    "print(time.perf_counter() - t0)\n"
)

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "err_max": "abs", "margin_max": "ratio"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas(threads: int) -> None:
    for name in BLAS_ENV:
        os.environ[name] = str(threads)


def setup_seconds() -> list[float]:
    """Import-and-warm time of mahlerzeta in fresh interpreters."""
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                             check=True, capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def platform_info(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": nproc(), "threads": threads,
            "blas_env": {name: os.environ[name] for name in BLAS_ENV}}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workload, mz, specs, oracle_values, tracer=None):
    """One closed-loop pass over the items; under ``tracer`` when given.

    Returns the items, the pass's wall and CPU seconds, and per item the
    (d, points) grids it evaluated (empty lists when untraced).
    """
    items, grids = [], []
    with tracer if tracer is not None else contextlib.nullcontext():
        wall0, cpu0 = perf_counter(), process_time()
        for spec, oracle in zip(specs, oracle_values):
            if tracer is not None:
                tracer.item_grids = []
            items.append(workloads.run_item(workload, mz, spec, oracle))
            grids.append(tracer.item_grids if tracer is not None else [])
        wall, cpu = perf_counter() - wall0, process_time() - cpu0
    return items, wall, cpu, grids


def e2e_values(items_per_pass, walls, cpus, setups) -> dict:
    items = [item for items in items_per_pass for item in items]
    errs = [item.err for item in items if item.err is not None]
    margins = [item.margin for item in items if item.margin is not None]
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "err_max": max(errs) if errs else float("nan"),
        "margin_max": max(margins) if margins else float("nan"),
    }


# per-layer metrics read from the tracer as per-pass sums: stats name, keys
LAYER_SUMS = (
    ("quadrature.grid_mean", ("calls", "nodes", "busy_s", "self_s")),
    ("quadrature.refine_to_tol", ("calls", "evals")),
    ("quadrature.det_stack", ("calls", "mats", "busy_s")),
    ("laurent.eval_on_nodes", ("calls", "term_evals", "busy_s")),
    ("laurent.parse_laurent", ("calls", "busy_s")),
    ("mahler.mahler_quadrature", ("calls", "busy_s", "unconverged", "singular_flagged")),
    ("mahler.mahler_univariate", ("calls", "busy_s")),
    ("mahler.hyper_pfq", ("calls", "busy_s")),
    ("mahler.zeta_mahler", ("calls", "busy_s")),
    ("zeta.log_zeta_refined", ("calls", "busy_s", "evals")),
    ("zeta.zeta_finite", ("busy_s",)),
    ("zeta.zeta_finite_dense", ("busy_s",)),
    ("zeta.log_zeta_series", ("calls", "busy_s")),
    ("zeta.cr_limit", ("busy_s",)),
    ("walk.matrix_weight_traces", ("calls", "steps", "window_site_steps", "busy_s")),
    ("walk.evolve", ("calls", "site_steps", "busy_s")),
    ("correspondence.transience_probe", ("busy_s",)),
    ("cli.main", ("calls", "busy_s", "self_s")),
)
# throughputs: metric name, stats name, numerator key (over busy_s)
LAYER_RATES = (
    ("quadrature.grid_mean.logdet.nodes_per_s", "quadrature.grid_mean.logdet", "nodes"),
    ("quadrature.grid_mean.logabs.nodes_per_s", "quadrature.grid_mean.logabs", "nodes"),
    ("quadrature.grid_mean.cossum.nodes_per_s", "quadrature.grid_mean.cossum", "nodes"),
    ("quadrature.det_stack.mats_per_s", "quadrature.det_stack", "mats"),
    ("laurent.eval_on_nodes.term_evals_per_s", "laurent.eval_on_nodes", "term_evals"),
)


def layer_metrics(tracer, items, traced_walls: list, overhead: float) -> dict:
    stats = tracer.stats
    traced_passes = len(traced_walls)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    out = {f"{name}.{key}": stats[name][key] / traced_passes
           for name, keys in LAYER_SUMS for key in keys}
    for metric, name, key in LAYER_RATES:
        out[metric] = rate(stats[name][key], stats[name]["busy_s"])
    ladder = stats["quadrature.ladder"]
    out["quadrature.ladder.useful_node_ratio"] = rate(ladder["final_nodes"], ladder["all_nodes"])
    out["mahler.singular_flag_missed"] = sum(item.singular_missed for item in items) / traced_passes
    for kind in workloads.SUITE_KINDS:
        mine = [item for item in items if item.kind == kind]
        out[f"correspondence.{kind}.busy_s"] = sum(item.seconds for item in mine) / traced_passes
        out[f"correspondence.{kind}.err"] = max((item.err for item in mine
                                                 if item.err is not None), default=0.0)
    out["trace.overhead_s"] = overhead
    out["trace.coverage"] = rate(tracer.top_busy, sum(traced_walls))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # cli is the one workload on the grid thread pool; the others run at one
    threads = nproc() if args.workload == "cli" else 1
    pin_blas(threads)
    if not (SRC / "mahlerzeta" / "__init__.py").is_file():
        sys.stderr.write(f"error: no mahlerzeta sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")

    import mahlerzeta

    if Path(mahlerzeta.__file__).resolve().parent != (SRC / "mahlerzeta").resolve():
        sys.stderr.write(f"error: mahlerzeta imported from {mahlerzeta.__file__}\n")
        return 2
    mz_modules = {name: importlib.import_module(f"mahlerzeta.{name}") for name in MZ_MODULES}
    mz = argparse.Namespace(**mz_modules)

    setups = setup_seconds()
    workload = workloads.WORKLOADS[args.workload](threads)
    specs = workload.inputs(mz, args.seed)
    oracle_values = [workload.oracle(spec) for spec in specs]
    mahlerzeta.special_constants()
    mz.quadrature.set_thread_count(threads)

    # with --trace 1, traced passes alternate with untraced ones, first and
    # last untraced, so a slow drift of the machine cancels in the overhead
    tracer = Tracer(mz_modules) if args.trace else None
    passes, walls, cpus, traced = [], [], [], []

    def untraced_pass():
        items, wall, cpu, _ = run_pass(workload, mz, specs, oracle_values)
        passes.append(items)
        walls.append(wall)
        cpus.append(cpu)

    start = perf_counter()
    untraced_pass()
    while True:
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > args.seconds and (tracer is None or traced):
            break
        if tracer is not None:
            traced.append(run_pass(workload, mz, specs, oracle_values, tracer))
            passes.append(traced[-1][0])
        untraced_pass()
    mismatched = any(a.values != b.values for t_items, *_ in traced
                     for a, b in zip(t_items, passes[0]))

    all_items = [item for items in passes for item in items]
    attempted = len(all_items)
    failed = sum(not item.ok for item in all_items)
    e2e = e2e_values(passes, walls, cpus, setups)
    report = {
        "workload": args.workload, "seed": args.seed, "platform": platform_info(threads),
        "items_per_pass": len(specs), "untraced_passes": len(walls),
        "pass_wall_s": walls, "setup_samples_s": setups,
        "metrics": {name: {"value": value, "unit": E2E_UNITS[name]}
                    for name, value in e2e.items()},
    }
    report["metrics"]["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    report["failures"] = [{"item": item.name, "error": item.error, "err": item.err,
                           "margin": item.margin} for item in all_items if not item.ok][:20]
    if tracer is None:
        metrics = {name: report["metrics"][name] for name in E2E_UNITS}
    else:
        traced_walls = [wall for _, wall, _, _ in traced]
        traced_wall = statistics.median(traced_walls)
        overhead = traced_wall - e2e["wall_s"]
        layer = layer_metrics(tracer, [i for t_items, *_ in traced for i in t_items],
                              traced_walls, overhead)
        report["tracing"] = {"traced_wall_s": traced_wall, "untraced_wall_s": e2e["wall_s"],
                             "overhead_s": overhead, "coverage": layer["trace.coverage"],
                             "traced_passes": len(traced), "values_identical": not mismatched}
        last_items, _, _, last_grids = traced[-1]
        report["cost_accuracy"] = [
            {"item": item.name, "err": item.err, "seconds": item.seconds,
             "final_grid": "{1}^{0}".format(*max(grids)) if grids else None}
            for item, grids in zip(last_items, last_grids) if item.err is not None]
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layer.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0 and not mismatched, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    if stat.endswith("_per_s"):
        return "1/s"
    if stat.endswith("_s"):
        return "s"
    if stat in ("useful_node_ratio", "coverage"):
        return "ratio"
    if stat == "err":
        return "abs"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
