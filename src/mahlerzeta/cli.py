"""Command-line front end with machine-readable JSON output.

Every subcommand prints one JSON object::

    {"command": ..., "inputs": ..., "result": ..., "diagnostics": ...,
     "schema_version": "1"}

Numbers carry 17 significant digits; complex entries appear as [re, im]
pairs.  Exit codes: 0 success, 1 computation failure (non-convergence,
singular factor, a grid, an evolve run or a light-cone run over its work
budget, a linear-algebra, arithmetic (floating-point, overflow) or memory
error), 2 usage or parse error.  Every error is one line on stderr; a float
option that is not a finite number, a ``--tol`` that is not positive and a
``--tol`` or ``--max-refinements`` without ``--grid`` are usage errors,
refused before any work.
Output is byte-identical for identical inputs; pass --timing to add wall
time to the diagnostics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .coins import CoinMatrix, F_TYPE, build_coin, classify_coin, flip_flop
from .correspondence import (
    SUITE_GROUPS,
    default_suite_params,
    run_suite,
    spanning_tree_constant,
    stgf,
    transience_probe,
)
from .errors import ComputationError
from .laurent import LaurentSyntaxError, parse_laurent
from .mahler import (
    _eliminated,
    hyper_pfq,
    mahler_quadrature,
    mahler_reduced,
    mahler_univariate,
    zeta_mahler,
)
from .quadrature import QuadratureSpec
# perfbench's tracer wraps set_thread_count in every module that imports it
from .quadrature import set_thread_count  # noqa: F401
from .walk import delta_state, evolve, total_measure, uniform_state
from .zeta import (
    _real,
    _site_coords,
    compute_series,
    log_zeta_refined,
    log_zeta_series,
    zeta_finite_dense,
    zeta_finite_log_mean,
)

__all__ = ["main", "console_main"]

SCHEMA_VERSION = "1"


# --------------------------------------------------------------------------
# serialization: floats at 17 significant digits, deterministic layout

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _to_json(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return f"[{_fmt_float(obj.real)}, {_fmt_float(obj.imag)}]"
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_to_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _to_json(obj.tolist())
    if isinstance(obj, (np.floating, np.complexfloating, np.integer)):
        return _to_json(obj.item())
    if dataclasses.is_dataclass(obj):
        return _to_json(dataclasses.asdict(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(command: str, inputs: dict, result, diagnostics: dict, timing: float | None) -> None:
    if timing is not None:
        diagnostics = dict(diagnostics)
        diagnostics["wall_s"] = timing
    payload = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "diagnostics": diagnostics,
        "schema_version": SCHEMA_VERSION,
    }
    sys.stdout.write(_to_json(payload) + "\n")


# --------------------------------------------------------------------------
# argument plumbing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line, like every other error mzc reports; -h prints the usage
        self.exit(2, f"{self.prog}: error: {message}\n")


def _finite(text: str) -> float:
    """The value of a float option: a finite number, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"tolerance must be positive, got {text!r}")
    return value


def _floats(text: str) -> list[float]:
    return [_finite(part) for part in text.split(",") if part.strip() != ""]


def _coin_from_args(args) -> CoinMatrix:
    kind = {"hadamard": "hadamard", "grover": "grover", "rw": "simple_rw"}.get(args.coin)
    if kind is None:
        raise ValueError(f"unknown coin {args.coin!r} (choose hadamard, grover, rw)")
    coin = build_coin(kind, args.d, args.xi)
    if args.shift == F_TYPE:
        coin = flip_flop(coin)
    return coin


def _quad_from_args(args) -> QuadratureSpec | None:
    if args.grid is None:
        return None
    return QuadratureSpec(points_per_dim=args.grid, tol=args.tol or 1e-10,
                          max_refinements=args.max_refinements or 0)


def _add_coin_flags(sub):
    sub.add_argument("--coin", required=True, help="hadamard | grover | rw")
    sub.add_argument("--d", type=int, default=1, help="spatial dimension")
    sub.add_argument("--xi", type=_finite, default=None, help="angle in radians (hadamard only)")
    sub.add_argument("--shift", choices=["m", "f"], default="m", help="shift model")


def _add_quad_flags(sub):
    sub.add_argument("--grid", type=int, help="final points per axis (the ladder starts at half)")
    sub.add_argument("--tol", type=_tolerance, help="refinement tolerance (needs --grid)")
    sub.add_argument("--max-refinements", type=int, help="doublings (needs --grid)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mzc",
        description="Walk zeta functions, Mahler measures, and their cross-checks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored: every grid runs on one thread")
    common.add_argument("--timing", action="store_true",
                        help="include wall time in diagnostics (breaks byte-identical output)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coin", parents=[common], help="build and classify a coin matrix")
    _add_coin_flags(p)

    p = sub.add_parser("evolve", parents=[common], help="run the walk on the torus")
    _add_coin_flags(p)
    p.add_argument("--N", type=int, required=True, help="torus side length")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--p", type=_finite, default=2.0, help="measure exponent")
    p.add_argument("--initial", choices=["origin", "uniform"], default="origin")
    p.add_argument("--emit-field", action="store_true", dest="emit_field")

    p = sub.add_parser("zeta-finite", parents=[common], help="walk-type zeta on the finite torus")
    _add_coin_flags(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--u", type=_finite, required=True)
    p.add_argument("--dense", action="store_true", help="use the dense-operator oracle route")

    p = sub.add_parser("cr", parents=[common], help="series coefficients C_r")
    _add_coin_flags(p)
    p.add_argument("--r-max", type=int, required=True, dest="r_max")
    p.add_argument("--method", choices=["trace_finite", "quad_limit", "path_sum", "closed_form"],
                   default="path_sum")
    p.add_argument("--N", type=int, default=None, help="torus size (trace_finite)")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("logzeta", parents=[common], help="logarithmic zeta function")
    _add_coin_flags(p)
    p.add_argument("--u", type=_finite, required=True)
    _add_quad_flags(p)
    p.add_argument("--series", action="store_true", help="use the C_r series route")
    p.add_argument("--r-max", type=int, default=60, dest="r_max")

    p = sub.add_parser("mahler", parents=[common], help="logarithmic Mahler measure")
    p.add_argument("--poly", required=True, help="Laurent polynomial, e.g. 'X1 + X2 + 1'")
    p.add_argument("--method", choices=["auto", "quadrature", "jensen"], default="auto")
    _add_quad_flags(p)
    p.add_argument("--s", type=_finite, default=None,
                   help="compute the torus average of |f|^s instead")

    p = sub.add_parser("hyper", parents=[common], help="generalized hypergeometric series")
    p.add_argument("--a", type=_floats, required=True, help="comma-separated upper parameters")
    p.add_argument("--b", type=_floats, required=True, help="comma-separated lower parameters")
    p.add_argument("--x", type=_finite, required=True)

    p = sub.add_parser("stgf", parents=[common], help="spanning tree generating function")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--u", type=_finite, required=True)
    _add_quad_flags(p)

    p = sub.add_parser("lambda", parents=[common], help="spanning tree constant")
    p.add_argument("--d", type=int, required=True)
    _add_quad_flags(p)

    p = sub.add_parser("transience", parents=[common], help="recurrence/transience probe")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--u-values", type=_floats, default="0.9,0.99,0.999", dest="u_values")

    p = sub.add_parser("verify", parents=[common], help="run identity cross-checks")
    p.add_argument("--suite", default="all", choices=("all",) + SUITE_GROUPS,
                   help="all, or one group of checks")
    p.add_argument("--tol-file", default="default", dest="tol_file",
                   help="'default' or a JSON file of tolerance overrides")
    return parser


# --------------------------------------------------------------------------
# subcommand bodies

def _cmd_coin(args):
    coin = _coin_from_args(args)
    inputs = {"coin": args.coin, "d": args.d, "xi": args.xi, "shift": args.shift}
    result = {
        "entries": coin.entries,
        "classification": sorted(classify_coin(coin)),
        "kind": coin.kind,
        "shift_type": coin.shift_type,
    }
    return inputs, result, {}


def _cmd_evolve(args):
    coin = _coin_from_args(args)
    state = (delta_state(args.d, args.N) if args.initial == "origin"
             else uniform_state(args.d, args.N))
    final = evolve(state, coin, args.steps)
    inputs = {"coin": args.coin, "d": args.d, "xi": args.xi, "shift": args.shift,
              "N": args.N, "steps": args.steps, "p": args.p, "initial": args.initial}
    result = {"time": final.time, "total_measure": total_measure(final, args.p)}
    if args.emit_field:
        result["field"] = [{"site": list(c), "vector": [complex(v) for v in final.field[c]]}
                           for c in _site_coords(args.N, args.d)]
    return inputs, result, {"initial_measure": total_measure(state, args.p)}


def _cmd_zeta_finite(args):
    coin = _coin_from_args(args)
    inputs = {"coin": args.coin, "d": args.d, "xi": args.xi, "shift": args.shift,
              "N": args.N, "u": args.u, "dense": args.dense}
    if args.dense:
        return inputs, zeta_finite_dense(coin, args.N, args.u), {"route": "dense"}
    mean = zeta_finite_log_mean(coin, args.N, args.u)
    value = math.exp(-_real(mean, 1e-10, "the log-determinant sum"))
    return inputs, value, {"route": "factorized", "imag_residual": abs(mean.imag)}


def _cmd_cr(args):
    coin = _coin_from_args(args)
    series = compute_series(coin, args.r_max, args.method, N=args.N)
    inputs = {"coin": args.coin, "d": args.d, "xi": args.xi, "shift": args.shift,
              "r_max": args.r_max, "method": args.method, "N": args.N}
    if args.format == "csv":
        sys.stdout.write("r,C_r\n")
        for r, value in series.values:
            sys.stdout.write(f"{r},{format(value, '.17g')}\n")
        return None
    result = {"values": [[r, v] for r, v in series.values], "method": series.method}
    return inputs, result, {}


def _cmd_logzeta(args):
    coin = _coin_from_args(args)
    inputs = {"coin": args.coin, "d": args.d, "xi": args.xi, "shift": args.shift,
              "u": args.u, "grid": args.grid, "series": args.series}
    if args.series:
        value, tail = log_zeta_series(coin, args.u, args.r_max)
        return inputs, value, {"tail_bound": tail, "r_max": args.r_max}
    res = log_zeta_refined(coin, args.u, _quad_from_args(args))
    return inputs, res.value.real, {
        "grid": res.points_per_dim,
        "refinement_evaluations": res.evaluations,
        "last_delta": res.delta,
        "imag_residual": abs(res.value.imag),
    }


def _cmd_mahler(args):
    poly = parse_laurent(args.poly)
    quad = _quad_from_args(args)
    inputs = {"poly": args.poly, "method": args.method, "grid": args.grid, "s": args.s}
    if args.s is not None:
        value = zeta_mahler(poly, args.s, quad)
        return inputs, value, {"route": "zeta_mahler"}
    if args.method == "jensen":
        res = mahler_reduced(poly, quad)
    elif args.method == "auto" and poly.n_vars == 1:
        res = mahler_univariate(poly)
    elif args.method == "auto" and _eliminated(poly)[2] <= 2:
        # every fiber takes closed forms; over the work budget, the torus route
        try:
            res = mahler_reduced(poly, quad)
        except ComputationError:
            res = mahler_quadrature(poly, quad)
    else:
        res = mahler_quadrature(poly, quad)
    return inputs, res.value, {
        "route": res.method,
        "error_estimate": res.error_estimate,
        "singular_on_torus": res.singular_on_torus,
    }


def _cmd_hyper(args):
    value = hyper_pfq(args.a, args.b, args.x)
    return {"a": args.a, "b": args.b, "x": args.x}, value, {}


def _cmd_stgf(args):
    value = stgf(args.d, args.u, _quad_from_args(args))
    return {"d": args.d, "u": args.u, "grid": args.grid}, value, {}


def _cmd_lambda(args):
    value = spanning_tree_constant(args.d, _quad_from_args(args))
    return {"d": args.d, "grid": args.grid}, value, {}


def _cmd_transience(args):
    probe = transience_probe(args.d, args.u_values)
    inputs = {"d": args.d, "u_values": args.u_values}
    result = dataclasses.asdict(probe)
    return inputs, result, {}


def _cmd_verify(args):
    if args.tol_file == "default":
        tolerances = None
    else:
        with open(args.tol_file, encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ValueError(f"--tol-file must hold a JSON object, got {type(raw).__name__}")
        tolerances = {}
        for kind, value in raw.items():
            try:
                tolerances[kind] = float(value)
            except (TypeError, ValueError):
                raise ValueError(f"--tol-file value for {kind!r} is not a number: "
                                 f"{value!r}") from None
    params = None if args.suite == "all" else default_suite_params(args.suite)
    reports = run_suite(tolerances, params)
    result = [dataclasses.asdict(rep) for rep in reports]
    diagnostics = {"total": len(reports),
                   "failed": sum(1 for rep in reports if not rep.passed)}
    inputs = {"suite": args.suite, "tol_file": args.tol_file}
    return inputs, result, diagnostics


_COMMANDS = {
    "coin": _cmd_coin,
    "evolve": _cmd_evolve,
    "zeta-finite": _cmd_zeta_finite,
    "cr": _cmd_cr,
    "logzeta": _cmd_logzeta,
    "mahler": _cmd_mahler,
    "hyper": _cmd_hyper,
    "stgf": _cmd_stgf,
    "lambda": _cmd_lambda,
    "transience": _cmd_transience,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "grid", 0) is None and (args.tol, args.max_refinements) != (None, None):
            parser.error("--tol and --max-refinements need --grid")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        start = time.perf_counter()
        out = _COMMANDS[args.command](args)
        if out is None:
            return 0
        inputs, result, diagnostics = out
        _emit(args.command, inputs, result, diagnostics,
              time.perf_counter() - start if args.timing else None)
        if args.command == "verify" and diagnostics.get("failed", 0):
            return 1
        return 0
    except LaurentSyntaxError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    # a LinAlgError (a ValueError) or an ArithmeticError is a failed computation
    except (np.linalg.LinAlgError, ArithmeticError, MemoryError) as exc:
        sys.stderr.write(f"computation failed: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ComputationError as exc:
        sys.stderr.write(f"computation failed: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
