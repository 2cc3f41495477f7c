"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces public functions of mahlerzeta in every module
namespace that imports them with timing wrappers, and ``uninstall()`` puts
the originals back.  The library's source is never edited: a call made
through ``zeta.grid_mean`` is seen because ``zeta`` looks the name up in its
own globals at call time.

Each wrapper records calls and busy seconds under ``<layer>.<function>``,
where the layer is the module that defines the function, plus the self time
(busy time minus the time of wrapped calls made inside it).  Some functions
also record work counts (nodes, matrices, term evaluations, DP site steps).
``grid_mean`` additionally times its integrand callback, so its self time is
the angle-block construction and the reduction, and credits its nodes to the
integrand kind named after the calling namespace.
"""

from __future__ import annotations

import math
import threading
from collections import defaultdict
from time import perf_counter

# namespace -> integrand kind of the grid_mean calls made from it
GRID_KINDS = {"zeta": "logdet", "mahler": "logabs", "correspondence": "cossum"}

# functions whose grid_mean calls form one refinement ladder
LADDERS = {"refine_to_tol", "mahler_quadrature", "stgf", "spanning_tree_constant"}

# (namespace, function names) to wrap, the namespace being a mahlerzeta
# module: the functions whose metrics are reported, the ones the workloads
# call at top level (for coverage), and every library function cli imports
# (so that cli.main's self time is argument parsing and JSON output)
WRAPPED = {
    "laurent": ("parse_laurent", "format_laurent"),
    "mahler": ("grid_mean", "refine_to_tol", "eval_on_nodes", "mahler_quadrature",
               "mahler_univariate", "hyper_pfq", "zeta_mahler", "mahler_square_lattice"),
    "zeta": ("grid_mean", "refine_to_tol", "det_stack", "log_zeta", "log_zeta_refined",
             "zeta_finite", "zeta_finite_dense", "log_zeta_series", "cr_limit",
             "cr_limit_pathsum", "matrix_weight_traces"),
    "walk": ("evolve", "total_measure", "delta_state"),
    "coins": ("build_coin", "custom_coin", "flip_flop"),
    "correspondence": ("grid_mean", "refine_to_tol", "mahler_quadrature", "hyper_pfq",
                       "log_zeta_series", "matrix_weight_traces", "run_suite",
                       "transience_probe", "stgf", "spanning_tree_constant"),
    "cli": ("main", "run_suite", "spanning_tree_constant", "stgf", "transience_probe",
            "parse_laurent", "mahler_quadrature", "mahler_univariate", "hyper_pfq",
            "zeta_mahler", "set_thread_count", "delta_state", "evolve", "total_measure",
            "uniform_state", "compute_series", "log_zeta_refined", "log_zeta_series",
            "zeta_finite_dense", "zeta_finite_log_mean", "build_coin", "classify_coin",
            "flip_flop", "default_suite_params"),
}


def _union_length(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class _Frame:
    __slots__ = ("child", "ladder")

    def __init__(self, ladder: bool):
        self.child = 0.0
        self.ladder = [] if ladder else None


class Tracer:
    """Aggregated per-function statistics for the calls made while installed."""

    def __init__(self, mz_modules: dict):
        self.modules = mz_modules
        self.stats = defaultdict(lambda: defaultdict(float))
        self.top_busy = 0.0
        self.item_grids = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._saved = []

    # -- bookkeeping ---------------------------------------------------------

    def add(self, name: str, **values) -> None:
        with self._lock:
            entry = self.stats[name]
            for key, value in values.items():
                entry[key] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for ns, names in WRAPPED.items():
            module = self.modules[ns]
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(ns, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, ns: str, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        qualname = f"{layer}.{fn.__name__}"
        post = getattr(self, "_post_" + fn.__name__, None)
        ladder = fn.__name__ in LADDERS
        if fn.__name__ == "grid_mean":
            return self._wrap_grid_mean(ns, fn, qualname)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = _Frame(ladder)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self._close(stack, dt)
                self.add(qualname, calls=1, busy_s=dt, self_s=dt - frame.child)
                if frame.ladder:
                    self.add("quadrature.ladder", final_nodes=frame.ladder[-1],
                             all_nodes=sum(frame.ladder))
            if post is not None:
                post(qualname, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, stack: list, dt: float) -> None:
        if stack:
            stack[-1].child += dt
        elif threading.get_ident() == self._main:
            self.top_busy += dt

    def _wrap_grid_mean(self, ns: str, fn, qualname: str):
        kind = GRID_KINDS[ns]

        def wrapper(integrand, d, points, shift, **kwargs):
            intervals = []

            def timed(nodes):
                t = perf_counter()
                out = integrand(nodes)
                intervals.append((t, perf_counter()))
                return out

            stack = self._stack()
            frame = _Frame(False)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(timed, d, points, shift, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self._close(stack, dt)
            nodes = points ** d
            self.add(qualname, calls=1, nodes=nodes, busy_s=dt,
                     self_s=dt - _union_length(intervals))
            self.add(f"{qualname}.{kind}", nodes=nodes, busy_s=dt)
            for outer in reversed(stack):
                if outer.ladder is not None:
                    outer.ladder.append(nodes)
                    break
            if self.item_grids is not None:
                self.item_grids.append((d, points))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- work counts ---------------------------------------------------------

    def _post_det_stack(self, name, args, kwargs, result):
        mats = _arg(args, kwargs, 0, "mats")
        self.add(name, mats=math.prod(mats.shape[:-2]))

    def _post_eval_on_nodes(self, name, args, kwargs, result):
        poly = _arg(args, kwargs, 0, "poly")
        nodes = _arg(args, kwargs, 1, "nodes")
        self.add(name, term_evals=nodes.shape[0] * len(poly.terms))

    def _post_refine_to_tol(self, name, args, kwargs, result):
        self.add(name, evals=result.evaluations)

    _post_log_zeta_refined = _post_refine_to_tol

    def _post_mahler_quadrature(self, name, args, kwargs, result):
        poly = _arg(args, kwargs, 0, "poly")
        spec = _arg(args, kwargs, 1, "quad") or self.modules["mahler"]._default_spec(poly.n_vars)
        self.add(name, unconverged=int(result.error_estimate > spec.tol),
                 singular_flagged=int(result.singular_on_torus))

    def _post_matrix_weight_traces(self, name, args, kwargs, result):
        coin = _arg(args, kwargs, 0, "coin")
        r_max = _arg(args, kwargs, 1, "r_max")
        self.add(name, steps=r_max, window_site_steps=r_max * (2 * r_max + 1) ** coin.dim_d)

    def _post_evolve(self, name, args, kwargs, result):
        state = _arg(args, kwargs, 0, "state")
        steps = _arg(args, kwargs, 2, "steps")
        self.add(name, site_steps=state.side_N ** state.dim_d * steps)
