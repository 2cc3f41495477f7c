"""Tests of the benchmark itself: inputs, oracles, tracing, CLI determinism.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import oracles
import run
import workloads
from tracer import Tracer

NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_byte_identical_inputs(mz, name):
    make = workloads.WORKLOADS[name]
    first = json.dumps(make().inputs(mz, 7), sort_keys=True).encode()
    second = json.dumps(make().inputs(mz, 7), sort_keys=True).encode()
    other = json.dumps(make().inputs(mz, 8), sort_keys=True).encode()
    assert first == second
    assert first != other


def _oracles_at(name, mz, seed, dps):
    workload = workloads.WORKLOADS[name]()
    saved = oracles.DPS
    oracles.DPS = dps
    try:
        return [workload.oracle(spec) for spec in workload.inputs(mz, seed)]
    finally:
        oracles.DPS = saved


def _flat(values):
    for value in values:
        if isinstance(value, dict):
            yield from _flat(value.values())
        elif isinstance(value, list):
            yield from _flat(value)
        elif value is not None:
            yield value


@pytest.mark.parametrize("name", NAMES)
def test_oracles_agree_with_higher_precision(mz, name):
    working = list(_flat(_oracles_at(name, mz, 3, oracles.DPS)))
    precise = list(_flat(_oracles_at(name, mz, 3, 40)))
    assert len(working) == len(precise) > 0
    for low, high in zip(working, precise):
        assert abs(low - high) <= 4e-16 * max(1.0, abs(high))


def test_oracles_match_independent_forms():
    # the spanning tree constant of Z^3 by the Bessel integral, against its
    # published value 1.673389303 (Felker and Lyons, J. Phys. A 2003)
    assert abs(oracles.stgf(3, 1.0) - 1.673389303) < 1e-9
    # Jensen on the 2x2 coin against the paper's closed forms
    xi, u = 0.7, -0.3
    c, s = math.cos(xi), math.sin(xi)
    assert abs(oracles.two_state_log_zeta([[c, s], [s, -c]], u)
               - oracles.qw1d_closed(xi, u, "m")) < 1e-15
    assert abs(oracles.two_state_log_zeta([[s, -c], [c, s]], u)
               - oracles.qw1d_closed(xi, u, "f")) < 1e-15
    # 4G/pi against the Bessel integral (the 4F3 form needs |u| < 1)
    assert abs(oracles.lambda_2() - (math.log(4) + oracles.rw_log_zeta(2, 1.0))) < 1e-14


def _pass(workload, mz, specs):
    return [workloads.run_item(workload, mz, spec, workload.oracle(spec)) for spec in specs]


@pytest.mark.filterwarnings("ignore:.*unit circle")
@pytest.mark.parametrize("name", ["mahler", "walks"])
def test_traced_and_untraced_values_identical(mz, mz_modules, name):
    workload = workloads.WORKLOADS[name]()
    # the two-variable vanishing item alone takes seconds; it is not needed here
    specs = [spec for spec in workload.inputs(mz, 5) if spec["name"] != "poly2.vanishing"]
    plain = _pass(workload, mz, specs)
    tracer = Tracer(mz_modules)
    with tracer:
        traced = _pass(workload, mz, specs)
    assert all(item.ok for item in plain), [item for item in plain if not item.ok]
    assert [item.values for item in plain] == [item.values for item in traced]
    assert tracer.stats["quadrature.grid_mean"]["calls"] > 0
    # uninstall restored every original function
    assert not hasattr(mz.zeta.grid_mean, "__wrapped__")


def test_tracer_counts_grid_nodes(mz, mz_modules):
    tracer = Tracer(mz_modules)
    poly = mz.laurent.parse_laurent("X1 + X2 + 3")
    spec = mz.quadrature.QuadratureSpec(16, 0.5, 1e-300, 1)
    with tracer:
        mz.mahler.mahler_quadrature(poly, spec)
    grid = tracer.stats["quadrature.grid_mean"]
    assert grid["calls"] == 3
    assert grid["nodes"] == 8 ** 2 + 16 ** 2 + 32 ** 2
    assert tracer.stats["laurent.eval_on_nodes"]["term_evals"] == 3 * grid["nodes"]
    ladder = tracer.stats["quadrature.ladder"]
    assert ladder["final_nodes"] == 32 ** 2
    assert ladder["all_nodes"] == grid["nodes"]
    assert tracer.stats["mahler.mahler_quadrature"]["unconverged"] == 1


def test_cli_output_identical_across_thread_counts(mz):
    many = max(2, run.nproc())
    workload = workloads.Cli()
    outputs = {}
    for threads in (1, many):
        outputs[threads] = [workload.call(mz, spec, threads)
                            for spec in workload.inputs(mz, 11)]
    assert all(code == 0 for code, _ in outputs[1])
    assert outputs[1] == outputs[many]


def test_run_without_sources_exits_nonzero():
    # a checkout that holds the benchmark but no src/, kept inside the
    # repository's ignored build directory
    scratch = run.HERE.parent / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copytree(run.HERE, Path(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", "tests"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "walks",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=tmp, capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode != 0
    assert out.stdout == ""
