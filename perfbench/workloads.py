"""The four workloads: seeded inputs, exact oracles, and one pass of calls.

A workload is a list of item specs (plain JSON data made from the seed), one
exact oracle per spec (computed with ``oracles``, outside any timed region),
and a ``run`` that makes the library calls for one item and scores them.
Every pass runs the same items, one after another (a closed loop).

Why these four:

- ``suite``: ``run_suite`` over the 63 canonical checks, the job that
  ``mzc verify --suite all`` pays for.  It spreads its time over every layer,
  so it is the regression net.
- ``mahler``: Laurent polynomials through format, parse and the Mahler
  routes.  It loads ``laurent`` and ``quadrature`` with no coin,
  determinant or walk DP work.
- ``walks``: coins through the zeta and walk routes.  It loads ``det_stack``,
  the walk DP and dense LAPACK, and uses no ``laurent``.
- ``cli``: the README's ``mzc`` calls in-process at ``nproc`` threads; the
  only workload that uses the grid thread pool and the CLI's parse and
  serialize layer.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from time import perf_counter

import oracles


@dataclass
class Item:
    """The outcome of one item in one pass."""

    name: str
    kind: str
    seconds: float = 0.0
    values: list = field(default_factory=list)
    err: float | None = None
    margin: float | None = None
    ok: bool = True
    error: str | None = None
    singular_missed: bool = False


class Workload:
    """Base of the four workloads; ``threads`` is the grid thread count."""

    def __init__(self, threads: int = 1):
        self.threads = threads


class Checks:
    """Scores an item: exact-oracle errors, cross-check margins, pass/fail."""

    def __init__(self, item: Item):
        self.item = item

    def value(self, *values) -> None:
        self.item.values.extend(values)

    def cross(self, diff: float, tol: float) -> None:
        """A check that passes when ``diff <= tol``; records diff / tol."""
        margin = diff / tol
        self.item.margin = margin if self.item.margin is None else max(self.item.margin, margin)
        if not diff <= tol:
            self.item.ok = False

    def exact(self, value: float, oracle: float, target: float) -> None:
        """A route value against an exact oracle, within the declared target."""
        err = abs(value - oracle)
        self.item.err = err if self.item.err is None else max(self.item.err, err)
        self.cross(err, target)

    def require(self, condition: bool) -> None:
        if not condition:
            self.item.ok = False


def run_item(workload, mz, spec: dict, oracle) -> Item:
    item = Item(spec["name"], spec["kind"])
    checks = Checks(item)
    t0 = perf_counter()
    try:
        workload.run(mz, spec, oracle, checks)
    except Exception as exc:  # an item that raises is a failed item, not a crash
        item.ok = False
        item.error = f"{type(exc).__name__}: {exc}"
    item.seconds = perf_counter() - t0
    return item


# --------------------------------------------------------------------------
# suite

SUITE_KINDS = ("qw1d", "grover_d1", "grover_d2", "grover_d3", "rw_d1", "rw_d2",
               "trees_lambda2", "stgf_shift", "transience", "smyth_2var", "smyth_3var",
               "catalan", "zeta3", "l_chi3")
_CONSTANT_KINDS = ("catalan", "zeta3", "l_chi3")


class Suite(Workload):
    def inputs(self, mz, seed: int) -> list[dict]:
        params = mz.correspondence.default_suite_params()
        specs = [{"name": f"{kind}.{i}", "kind": kind, "args": args}
                 for i, (kind, args) in enumerate(params)]
        random.Random(seed).shuffle(specs)
        return specs

    def oracle(self, spec: dict):
        kind, args = spec["kind"], spec["args"]
        if kind == "qw1d":
            return oracles.qw1d_closed(args["xi"], args["u"], args["shift_type"])
        if kind.startswith("grover_d"):
            return oracles.grover_log_zeta(args["d"], args["u"])
        if kind.startswith("rw_d"):
            return oracles.rw_log_zeta(args["d"], args["u"])
        if kind == "stgf_shift":
            return oracles.stgf(args["d"], args["u"])
        if kind == "transience":
            # d = 1, 2 report a verdict; d = 3 the Green function at u = 0.999
            return oracles.lattice_green(3, 0.999) if args["d"] == 3 else None
        return {"trees_lambda2": oracles.lambda_2, "smyth_2var": oracles.smyth_2var,
                "smyth_3var": oracles.smyth_3var, "catalan": oracles.catalan,
                "zeta3": oracles.zeta3, "l_chi3": oracles.l_chi3_2}[kind]()

    def run(self, mz, spec, oracle, chk: Checks) -> None:
        kind = spec["kind"]
        (report,) = mz.correspondence.run_suite(None, [(kind, spec["args"])])
        chk.value(report.lhs, report.rhs)
        chk.require(report.passed)
        chk.cross(report.abs_diff, report.tolerance)
        if oracle is not None:
            chk.exact(report.lhs, oracle, report.tolerance)
            if kind not in _CONSTANT_KINDS:  # their rhs is a printed literal
                chk.exact(report.rhs, oracle, report.tolerance)


# --------------------------------------------------------------------------
# mahler

# depth classes: |log |root|| of every root, which sets the ladder depth
_DEPTH = {"far": (0.9, 1.6), "mid": (0.33, 0.7), "near": (0.095, 0.26)}
# declared accuracy targets for a smooth polynomial (ten times the default
# spec's tolerance) and for one that vanishes on the torus: a midpoint grid
# of M nodes per axis is off by about log(2)/M on a simple zero, and the
# default two-variable ladder stops at M = 4096
_SMOOTH_TARGET = {1: 1e-9, 2: 1e-7, 3: 1e-5}
_VANISHING_TARGET = 1e-3
_JENSEN_TARGET = 1e-9
_HYPER_TARGET = 1e-12


def _linear_factor(rng: random.Random, depth: str) -> list[int]:
    lo, hi = _DEPTH[depth]
    pairs = [(p, q) for p in range(1, 13) for q in range(p + 1, 13)
             if lo <= math.log(q / p) <= hi]
    p, q = rng.choice(pairs)
    if rng.random() < 0.5:
        p, q = q, p
    return [p, rng.choice((-1, 1)) * q]


def _quadratic_factor(rng: random.Random, depth: str) -> list[int]:
    lo, hi = _DEPTH[depth]
    while True:
        a, b, c = (rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(-9, 9),
                   rng.choice((-1, 1)) * rng.randint(1, 9))
        disc = b * b - 4 * a * c
        # a complex pair has modulus sqrt(c / a); c != 0 keeps real roots nonzero
        moduli = ([abs((-b + s * math.sqrt(disc)) / (2 * a)) for s in (1, -1)]
                  if disc >= 0 else [math.sqrt(c / a)])
        if all(lo <= abs(math.log(r)) <= hi for r in moduli):
            return [a, b, c]


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A permutation times two unit shears: det +-1, entries in [-2, 2]."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(2):
            i, j = rng.sample(range(n), 2)
            sign = rng.choice((-1, 1))
            rows[i] = [a + sign * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    if rng.random() < 0.5:
        rows[0] = [-a for a in rows[0]]
    return rows


def _expand(n: int, factors: list[tuple[int, list[int]]]) -> dict:
    """Multiply univariate factors (variable index, coefficients high to low)."""
    terms = {(0,) * n: 1}
    for var, coeffs in factors:
        degree = len(coeffs) - 1
        out: dict = {}
        for exps, c in terms.items():
            for k, a in enumerate(coeffs):
                if a:
                    e = list(exps)
                    e[var] += degree - k
                    out[tuple(e)] = out.get(tuple(e), 0) + c * a
        terms = {e: c for e, c in out.items() if c}
    return terms


def _poly_spec(rng, name, n, factors, vanishing) -> dict:
    """Seeded unimodular exponent change, then an optional (1 + X_j) factor.

    The (1 + X_j) factor goes on after the change of exponents, so its zero
    set theta_j = pi stays between the midpoint nodes of every even grid.
    """
    matrix = _unimodular(rng, n)
    terms = {}
    for exps, c in _expand(n, factors).items():
        new = tuple(sum(matrix[i][j] * exps[j] for j in range(n)) for i in range(n))
        terms[new] = c
    if vanishing is not None:
        terms = _mul_terms(terms, vanishing)
    return {"name": name, "kind": f"poly{n}", "n": n,
            "terms": sorted([list(e), c] for e, c in terms.items()),
            "factors": [coeffs for _, coeffs in factors]
            + ([[1, 1]] if vanishing is not None else []),
            "vanishing": vanishing is not None}


def _mul_terms(terms: dict, var: int) -> dict:
    out: dict = {}
    for exps, c in terms.items():
        shifted = list(exps)
        shifted[var] += 1
        for e in (exps, tuple(shifted)):
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


class Mahler(Workload):
    def inputs(self, mz, seed: int) -> list[dict]:
        rng = random.Random(seed)
        specs = []
        for i, depths in enumerate((("far", "mid"), ("mid", "near"), ("near", "far", "mid"))):
            factors = [(0, _linear_factor(rng, dep) if k % 2 else _quadratic_factor(rng, dep))
                       for k, dep in enumerate(depths)]
            specs.append(_poly_spec(rng, f"poly1.{i}", 1, factors, None))
        specs.append(_poly_spec(rng, "poly1.vanishing", 1,
                                [(0, _quadratic_factor(rng, "mid"))], 0))
        for i, depths in enumerate((("far", "mid"), ("mid", "near"), ("near", "far"))):
            factors = [(0, _linear_factor(rng, depths[0])),
                       (1, _quadratic_factor(rng, depths[1]) if i == 0
                        else _linear_factor(rng, depths[1]))]
            specs.append(_poly_spec(rng, f"poly2.{i}", 2, factors, None))
        # the shape of (X1 + 1)(X2 - 3), with a seeded far root
        root = _linear_factor(rng, "far")
        specs.append({"name": "poly2.vanishing", "kind": "poly2", "n": 2,
                      "terms": sorted([list(e), c] for e, c in
                                      _expand(2, [(0, [1, 1]), (1, root)]).items()),
                      "factors": [[1, 1], root], "vanishing": True})
        for i, (lo, hi) in enumerate(((4.25, 6.0), (6.0, 8.0))):
            c = round(rng.uniform(lo, hi), 3)
            specs.append({"name": f"square.{i}", "kind": "square", "n": 2, "c": c,
                          "terms": [[[-1, 0], 1], [[0, -1], 1], [[0, 0], c],
                                    [[0, 1], 1], [[1, 0], 1]],
                          "factors": None, "vanishing": False})
        for i in range(2):
            factors = [(j, _linear_factor(rng, "far")) for j in range(3)]
            specs.append(_poly_spec(rng, f"poly3.{i}", 3, factors, None))
        rng.shuffle(specs)
        return specs

    def oracle(self, spec: dict) -> dict:
        if spec["kind"] == "square":
            measure = oracles.square_lattice(spec["c"])
        else:
            measure = math.fsum(oracles.mahler_1var(f) for f in spec["factors"])
        # Parseval: the torus average of |f|^2 is the sum of squared coefficients
        return {"m": measure, "l2": math.fsum(c * c for _, c in spec["terms"])}

    def run(self, mz, spec, oracle, chk: Checks) -> None:
        n = spec["n"]
        poly = mz.laurent.LaurentPolynomial(n, {tuple(e): c for e, c in spec["terms"]})
        text = mz.laurent.format_laurent(poly)
        parsed = mz.laurent.parse_laurent(text)
        chk.require(parsed == poly)
        target = _VANISHING_TARGET if spec["vanishing"] else _SMOOTH_TARGET[n]
        res = mz.mahler.mahler_quadrature(parsed)
        chk.value(res.value, res.error_estimate)
        chk.exact(res.value, oracle["m"], target)
        if spec["vanishing"] and not res.singular_on_torus:
            chk.item.singular_missed = True
        if n == 1:
            jensen = mz.mahler.mahler_univariate(parsed)
            chk.value(jensen.value)
            chk.exact(jensen.value, oracle["m"], _JENSEN_TARGET)
        if spec["kind"] == "square":
            hyper = mz.mahler.mahler_square_lattice(spec["c"])
            chk.value(hyper)
            chk.exact(hyper, oracle["m"], _HYPER_TARGET)
        l2 = mz.mahler.zeta_mahler(parsed, 2.0)
        chk.value(l2)
        chk.exact(l2, oracle["l2"], 1e-12 * oracle["l2"])


# --------------------------------------------------------------------------
# walks

_SERIES_SLACK = 1e-12   # rounding allowance on top of the series tail bound
_LOGZETA_TARGET = 1e-9  # log-zeta quadrature against an exact oracle

# per dimension: finite torus sides for zeta_finite (small N: the dense
# oracle's size 2d N^d stays small; large N: the torus value has converged
# to the lattice one), step count r for C_r, torus side and steps for evolve
_SIZES = {1: {"N": 32, "N_large": 4096, "r": 8, "evolve_N": 256, "steps": 64},
          2: {"N": 6, "N_large": 256, "r": 8, "evolve_N": 48, "steps": 24},
          3: {"N": 4, "N_large": 48, "r": 6, "evolve_N": 16, "steps": 12}}


def _orthogonal(rng: random.Random, n: int) -> list[list[float]]:
    """Gram-Schmidt on a seeded Gaussian matrix: a random real orthogonal."""
    rows: list[list[float]] = []
    while len(rows) < n:
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        for w in rows:
            dot = sum(a * b for a, b in zip(v, w))
            v = [a - dot * b for a, b in zip(v, w)]
        norm = math.sqrt(sum(a * a for a in v))
        if norm > 1e-3:
            rows.append([a / norm for a in v])
    return rows


def _stochastic(rng: random.Random, n: int) -> list[list[float]]:
    """Seeded positive entries with unit column sums."""
    cols = [[rng.uniform(0.1, 1.0) for _ in range(n)] for _ in range(n)]
    cols = [[a / sum(col) for a in col] for col in cols]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


class Walks(Workload):
    def inputs(self, mz, seed: int) -> list[dict]:
        rng = random.Random(seed)
        # the random-walk and Grover coins run at fixed u with the library's
        # default r_max of 60 where the DP window allows it, so their series
        # truncation sets a reproducible err_max; seeded coins keep their
        # tail bounds far below it
        specs = [
            {"family": "rw", "d": 1, "u": -0.8, "r_max": 60},
            {"family": "rw", "d": 2, "u": -0.8, "r_max": 60},
            {"family": "rw", "d": 3, "u": -0.3, "r_max": 14},
            {"family": "grover", "d": 2, "u": -0.5, "r_max": 40},
            {"family": "grover", "d": 3, "u": -0.3, "r_max": 16},
        ]
        for shift in ("m", "f"):
            specs.append({"family": "hadamard", "d": 1, "shift": shift,
                          "xi": round(rng.uniform(0.3, 1.2), 6),
                          "u": round(rng.uniform(-0.4, -0.1), 6), "r_max": 40})
        specs.append({"family": "orthogonal", "d": 2, "entries": _orthogonal(rng, 4),
                      "u": rng.choice((-0.3, 0.3)), "r_max": 36})
        specs.append({"family": "stochastic", "d": 1, "entries": _stochastic(rng, 2),
                      "u": round(rng.choice((-1, 1)) * rng.uniform(0.2, 0.4), 6), "r_max": 40})
        specs.append({"family": "stochastic", "d": 2, "entries": _stochastic(rng, 4),
                      "u": round(rng.choice((-1, 1)) * rng.uniform(0.2, 0.3), 6), "r_max": 36})
        for spec in specs:
            spec["name"] = f"{spec['family']}_d{spec['d']}" + spec.get("shift", "")
            spec["kind"] = spec["family"]
        rng.shuffle(specs)
        return specs

    def oracle(self, spec: dict):
        family, d, u = spec["family"], spec["d"], spec["u"]
        if family == "rw":
            return oracles.rw_log_zeta(d, u)
        if family == "grover":
            return oracles.grover_log_zeta(d, u)
        if family == "hadamard":
            return oracles.qw1d_closed(spec["xi"], u, spec["shift"])
        if family == "stochastic" and d == 1:
            return oracles.two_state_log_zeta(spec["entries"], u)
        return None

    @staticmethod
    def coin(mz, spec):
        family, d = spec["family"], spec["d"]
        if family == "rw":
            return mz.coins.build_coin("simple_rw", d)
        if family == "grover":
            return mz.coins.flip_flop(mz.coins.build_coin("grover", d))
        if family == "hadamard":
            coin = mz.coins.build_coin("hadamard", 1, spec["xi"])
            return mz.coins.flip_flop(coin) if spec["shift"] == "f" else coin
        return mz.coins.custom_coin(spec["entries"])

    def run(self, mz, spec, oracle, chk: Checks) -> None:
        coin = self.coin(mz, spec)
        d, u = spec["d"], spec["u"]
        sizes = _SIZES[d]
        zeta, walk = mz.zeta, mz.walk
        value = zeta.log_zeta(coin, u)
        series, tail = zeta.log_zeta_series(coin, u, spec["r_max"])
        chk.value(value, series, tail)
        chk.cross(abs(value - series), tail + _SERIES_SLACK)
        if oracle is not None:
            chk.exact(value, oracle, _LOGZETA_TARGET)
            chk.exact(series, oracle, tail + _SERIES_SLACK)
        fast = zeta.zeta_finite(coin, sizes["N"], u)
        dense = zeta.zeta_finite_dense(coin, sizes["N"], u)
        chk.value(fast, dense)
        chk.cross(abs(fast - dense), 1e-11 * abs(dense))
        large = zeta.zeta_finite(coin, sizes["N_large"], u)
        chk.value(large)
        chk.cross(abs(math.log(large) + value), 1e-9)
        quad = zeta.cr_limit(coin, sizes["r"])
        paths = zeta.cr_limit_pathsum(coin, sizes["r"])
        chk.value(quad, paths)
        chk.cross(abs(quad - paths), 1e-9)
        # unitary coins conserve the l2 measure, stochastic ones the l1 measure
        p = 1.0 if spec["family"] in ("rw", "stochastic") else 2.0
        state = walk.delta_state(d, sizes["evolve_N"])
        final = walk.evolve(state, coin, sizes["steps"])
        measure = walk.total_measure(final, p)
        chk.value(measure)
        chk.cross(abs(measure - 1.0), 1e-10)


# --------------------------------------------------------------------------
# cli

# declared targets: the suite's tolerance for the matching check, or a
# rounding-level bound where the route is exact
_CLI_TARGETS = {"logzeta": 1e-9, "mahler_jensen": 1e-12, "smyth_2var": 1e-4,
                "zeta_finite": 1e-12, "cr": 1e-12, "stgf": 1e-8, "lambda_2": 1e-4,
                "transience": 2e-2, "lambda_3": 1e-4, "smyth_3var": 1e-3}


class Cli(Workload):
    def inputs(self, mz, seed: int) -> list[dict]:
        rng = random.Random(seed)
        xi = round(rng.uniform(0.3, 1.2), 6)
        u_qw = round(rng.uniform(-0.4, -0.05), 6)
        a = rng.randint(2, 9) * rng.choice((-1, 1))
        u_zf = round(rng.uniform(-0.5, -0.1), 6)
        u_stgf = round(rng.uniform(0.85, 0.92), 6)
        calls = [
            ("logzeta", ["logzeta", "--coin", "hadamard", "--xi", str(xi), "--shift", "m",
                         "--u", str(u_qw), "--grid", "4096"], {"xi": xi, "u": u_qw}),
            ("mahler_jensen", ["mahler", "--poly", f"X1 + {a}" if a > 0 else f"X1 - {-a}"],
             {"a": a}),
            ("smyth_2var", ["mahler", "--poly", "X1 + X2 + 1", "--grid", "1024"], {}),
            ("zeta_finite", ["zeta-finite", "--coin", "grover", "--d", "2", "--shift", "f",
                             "--N", "3", "--u", str(u_zf)], {"u": u_zf}),
            ("cr", ["cr", "--coin", "rw", "--d", "1", "--r-max", "8", "--format", "csv"], {}),
            ("stgf", ["stgf", "--d", "2", "--u", str(u_stgf)], {"u": u_stgf}),
            ("lambda_2", ["lambda", "--d", "2"], {}),
            ("transience", ["transience", "--d", "3", "--u-values", "0.9,0.99,0.999"], {}),
            ("lambda_3", ["lambda", "--d", "3"], {}),
            ("smyth_3var", ["mahler", "--poly", "X1 + X2 + X3 + 1"], {}),
        ]
        specs = [{"name": name, "kind": "cli", "argv": argv, "params": params}
                 for name, argv, params in calls]
        rng.shuffle(specs)
        return specs

    def oracle(self, spec: dict):
        kind, p = spec["name"], spec["params"]
        if kind == "logzeta":
            return oracles.qw1d_closed(p["xi"], p["u"], "m")
        if kind == "mahler_jensen":
            return math.log(max(abs(p["a"]), 1))
        if kind == "zeta_finite":
            return oracles.grover_zeta_finite(2, 3, p["u"])
        if kind == "cr":
            return [oracles.rw_return_trace(r) for r in range(1, 9)]
        if kind == "stgf":
            return oracles.stgf(2, p["u"])
        if kind == "transience":
            return [oracles.lattice_green(3, u) for u in (0.9, 0.99, 0.999)]
        return {"smyth_2var": oracles.smyth_2var, "smyth_3var": oracles.smyth_3var,
                "lambda_2": oracles.lambda_2, "lambda_3": lambda: oracles.stgf(3, 1.0)}[kind]()

    def call(self, mz, spec: dict, threads: int) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mz.cli.main(spec["argv"] + ["--threads", str(threads)])
        return code, out.getvalue()

    def run(self, mz, spec, oracle, chk: Checks) -> None:
        code, text = self.call(mz, spec, self.threads)
        chk.require(code == 0)
        name = spec["name"]
        if name == "cr":
            rows = text.strip().splitlines()
            chk.require(rows[0] == "r,C_r")
            values = [float(row.split(",")[1]) for row in rows[1:]]
        else:
            result = json.loads(text)["result"]
            values = result["green_values"] if name == "transience" else [result]
        chk.value(*values)
        exacts = oracle if isinstance(oracle, list) else [oracle]
        for value, exact in zip(values, exacts, strict=True):
            chk.exact(value, exact, _CLI_TARGETS[name])


WORKLOADS = {"suite": Suite, "mahler": Mahler, "walks": Walks, "cli": Cli}
