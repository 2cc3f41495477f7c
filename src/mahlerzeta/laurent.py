"""Multivariate Laurent polynomials: grammar, parser, formatter, evaluator.

Grammar (ASCII, whitespace-insensitive between tokens)::

    poly   := term (('+'|'-') term)*        with optional leading '-'
    term   := coeff ('*' varpow)* | varpow ('*' varpow)*
    varpow := 'X' INT ('^' SINT)?
    coeff  := DECIMAL | INT ('/' INT)?

Variable indices start at 1; exponents may be negative.  '*' is mandatory
between factors, so "2X1" is rejected.  Coefficients in text form are real;
complex coefficients enter through the constructor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

__all__ = [
    "LaurentPolynomial",
    "LaurentSyntaxError",
    "parse_laurent",
    "format_laurent",
    "eval_laurent",
    "mesh_evaluator",
]

MAX_VAR_INDEX = 32
MAX_EXPONENT = 10 ** 6


class LaurentSyntaxError(ValueError):
    """Parse failure, carrying the byte offset and the expected-token set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at byte {offset}"
        if expected:
            detail += f" (expected {', '.join(expected)})"
        super().__init__(detail)


class LaurentPolynomial:
    """Sparse Laurent polynomial: exponent vectors mapped to complex coefficients.

    Terms are canonicalized on construction: like terms merged, zero
    coefficients dropped.  The zero polynomial is rejected, since every
    consumer here (Mahler measures, torus evaluation) needs a nonzero input.
    """

    __slots__ = ("n_vars", "_terms")

    def __init__(self, n_vars: int, terms: Mapping[tuple[int, ...], complex]):
        if n_vars < 1:
            raise ValueError(f"n_vars must be >= 1, got {n_vars}")
        merged: dict[tuple[int, ...], complex] = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != n_vars:
                raise ValueError(f"exponent vector {exps} does not have length {n_vars}")
            if any(abs(e) > MAX_EXPONENT for e in exps):
                raise ValueError(f"exponent magnitude above {MAX_EXPONENT} in {exps}")
            merged[exps] = merged.get(exps, 0j) + complex(coeff)
        merged = {e: c for e, c in merged.items() if c != 0}
        if not merged:
            raise ValueError("zero polynomial")
        # canonical variable count: the highest index actually referenced,
        # matching the parser's convention (trailing unused variables change
        # no torus average)
        used = max((self._last_nonzero(e) for e in merged), default=0)
        used = max(used, 1)
        if used < n_vars:
            merged = {e[:used]: c for e, c in merged.items()}
            n_vars = used
        self.n_vars = n_vars
        self._terms = merged

    @staticmethod
    def _last_nonzero(exps: tuple[int, ...]) -> int:
        for pos in range(len(exps), 0, -1):
            if exps[pos - 1] != 0:
                return pos
        return 0

    @property
    def terms(self) -> dict[tuple[int, ...], complex]:
        return dict(self._terms)

    def __eq__(self, other):
        return (isinstance(other, LaurentPolynomial)
                and self.n_vars == other.n_vars
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.n_vars, frozenset(self._terms.items())))

    def __repr__(self):
        try:
            return f"LaurentPolynomial({format_laurent(self)!r})"
        except ValueError:  # complex coefficients have no text form
            terms = {e: self._terms[e] for e in sorted(self._terms, key=_term_key, reverse=True)}
            return f"LaurentPolynomial({self.n_vars}, {terms!r})"


# --------------------------------------------------------------------------
# tokenizer

_INT = "INT"
_DECIMAL = "DECIMAL"
_ONE_CHAR = {"+": "+", "-": "-", "*": "*", "^": "^", "/": "/", "X": "X"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _ONE_CHAR:
            tokens.append((_ONE_CHAR[ch], ch, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                if i >= n or not text[i].isdigit():
                    raise LaurentSyntaxError("malformed decimal", i, ("digit",))
                while i < n and text[i].isdigit():
                    i += 1
                tokens.append((_DECIMAL, text[start:i], start))
            else:
                tokens.append((_INT, text[start:i], start))
            continue
        raise LaurentSyntaxError(f"unexpected character {ch!r}", i,
                                 ("'+'", "'-'", "'*'", "'^'", "'X'", "number"))
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind: str):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise LaurentSyntaxError(f"unexpected token {tok[1]!r}", tok[2], (kind,))
        self.pos += 1
        return tok

    def parse(self) -> tuple[int, dict[tuple[int, ...], complex]]:
        sign = 1.0
        if self.peek()[0] == "-":
            self.take("-")
            sign = -1.0
        raw: dict[tuple[tuple[int, int], ...], complex] = {}
        max_index = 1
        while True:
            coeff, powers = self._term()
            for index, _ in powers:
                max_index = max(max_index, index)
            raw[powers] = raw.get(powers, 0j) + sign * coeff
            kind, _, _ = self.peek()
            if kind == "END":
                break
            if kind == "+":
                self.take("+")
                sign = 1.0
            elif kind == "-":
                self.take("-")
                sign = -1.0
            else:
                tok = self.peek()
                raise LaurentSyntaxError(f"unexpected token {tok[1]!r}", tok[2],
                                         ("'+'", "'-'", "end of input"))
        terms = {}
        for key, coeff in raw.items():
            exps = [0] * max_index
            for index, exponent in key:
                exps[index - 1] = exponent
            terms[tuple(exps)] = terms.get(tuple(exps), 0j) + coeff
        return max_index, terms

    def _term(self) -> tuple[complex, tuple[tuple[int, int], ...]]:
        kind, _, offset = self.peek()
        powers: dict[int, int] = {}
        if kind in (_INT, _DECIMAL):
            coeff = self._coeff()
            while self.peek()[0] == "*":
                self.take("*")
                self._varpow(powers)
        elif kind == "X":
            coeff = 1.0
            self._varpow(powers)
            while self.peek()[0] == "*":
                self.take("*")
                self._varpow(powers)
        else:
            raise LaurentSyntaxError("expected a term", offset, ("number", "'X'"))
        powers = {i: e for i, e in powers.items() if e != 0}
        return complex(coeff), tuple(sorted(powers.items()))

    def _coeff(self) -> float:
        kind, text, offset = self.peek()
        if kind == _DECIMAL:
            self.take(_DECIMAL)
            return float(text)
        self.take(_INT)
        if self.peek()[0] == "/":
            self.take("/")
            dkind, dtext, doffset = self.peek()
            self.take(_INT)
            if int(dtext) == 0:
                raise LaurentSyntaxError("zero denominator", doffset, ("nonzero integer",))
            return int(text) / int(dtext)
        return float(int(text))

    def _varpow(self, powers: dict[int, int]) -> None:
        self.take("X")
        kind, text, offset = self.peek()
        self.take(_INT)
        index = int(text)
        if index == 0:
            raise LaurentSyntaxError("variable index 0 (indices start at 1)", offset,
                                     ("integer >= 1",))
        if index > MAX_VAR_INDEX:
            raise LaurentSyntaxError(f"variable index above {MAX_VAR_INDEX}", offset,
                                     (f"integer <= {MAX_VAR_INDEX}",))
        exponent = 1
        if self.peek()[0] == "^":
            self.take("^")
            sign = 1
            if self.peek()[0] == "-":
                self.take("-")
                sign = -1
            elif self.peek()[0] == "+":
                self.take("+")
            ekind, etext, eoffset = self.peek()
            self.take(_INT)
            exponent = sign * int(etext)
            if abs(exponent) > MAX_EXPONENT:
                raise LaurentSyntaxError(f"exponent magnitude above {MAX_EXPONENT}", eoffset,
                                         (f"|exponent| <= {MAX_EXPONENT}",))
        powers[index] = powers.get(index, 0) + exponent


def parse_laurent(text: str) -> LaurentPolynomial:
    """Parse the grammar above into a canonical sparse polynomial.

    Raises ``LaurentSyntaxError`` (with byte offset) on malformed input and
    ``ValueError`` when all terms cancel to the zero polynomial.
    """
    n_vars, terms = _Parser(text).parse()
    return LaurentPolynomial(n_vars, terms)


# --------------------------------------------------------------------------
# formatting

def _format_magnitude(c: float) -> str:
    if c == int(c) and abs(c) <= 2 ** 53:
        return str(int(c))
    rep = repr(c)
    if "e" not in rep and "E" not in rep:
        return rep
    frac = Fraction(c)
    return f"{frac.numerator}/{frac.denominator}"


def _term_key(exps: tuple[int, ...]):
    return (sum(abs(e) for e in exps), exps)


def format_laurent(poly: LaurentPolynomial) -> str:
    """Deterministic text form; round-trips through ``parse_laurent``.

    Terms appear in graded-lexicographic order (grade = sum of absolute
    exponents, descending).  Only real coefficients are representable in the
    grammar.
    """
    pieces = []
    for i, exps in enumerate(sorted(poly._terms, key=_term_key, reverse=True)):
        coeff = poly._terms[exps]
        if coeff.imag != 0.0:
            raise ValueError("complex coefficients have no text form")
        value = coeff.real
        sign = "-" if value < 0 else "+"
        magnitude = abs(value)
        factors = [
            f"X{j + 1}" + (f"^{e}" if e != 1 else "")
            for j, e in enumerate(exps) if e != 0
        ]
        if not factors:
            body = _format_magnitude(magnitude)
        elif magnitude == 1.0:
            body = "*".join(factors)
        else:
            body = "*".join([_format_magnitude(magnitude)] + factors)
        if i == 0:
            pieces.append(body if sign == "+" else "-" + body)
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


def eval_laurent(poly: LaurentPolynomial, point) -> complex:
    """Evaluate on the unit torus at the given angles: X_j = exp(i theta_j)."""
    angles = np.asarray(getattr(point, "angles", point), dtype=np.float64)
    if angles.shape != (poly.n_vars,):
        raise ValueError(f"point must have {poly.n_vars} angles, got shape {angles.shape}")
    total = 0j
    for exps, coeff in poly._terms.items():
        total += coeff * complex(np.exp(1j * float(np.dot(angles, exps))))
    return total


def _exponent_matrix(poly: LaurentPolynomial) -> tuple[np.ndarray, np.ndarray]:
    """Term exponents as an (n_terms, n_vars) int matrix plus the coefficients."""
    items = sorted(poly._terms.items(), key=lambda kv: _term_key(kv[0]), reverse=True)
    exps = np.array([e for e, _ in items], dtype=np.int64).reshape(len(items), poly.n_vars)
    coeffs = np.array([c for _, c in items], dtype=np.complex128)
    return exps, coeffs


def _column_plan(needed) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], tuple[int, ...]]:
    """How ``_column_powers`` builds z**k for each nonzero k in ``needed``.

    Each k > 0 that occurs as k or -k comes with the bits b of k, ascending,
    whose squares z**(2**b) multiply to z**k; the negative k follow apart.
    """
    ks = sorted({abs(e) for e in needed} - {0})
    steps = tuple((k, tuple(b for b in range(k.bit_length()) if k >> b & 1)) for k in ks)
    return steps, tuple(k for k in needed if k < 0)


def _column_powers(z: np.ndarray, plan) -> dict[int, np.ndarray]:
    """z**k for each k of a ``_column_plan``, z a column of unit-torus points.

    Positive powers come by repeated squaring; z**-k is the conjugate of
    z**k, which holds because |z| = 1.  z**1 is the column itself; every
    other table is a new array.
    """
    steps, negative = plan
    squares = [z]  # squares[b] is z**(2**b)
    table = {}
    for k, bits in steps:
        while bits[-1] >= len(squares):
            squares.append(squares[-1] * squares[-1])
        acc = squares[bits[0]]
        if len(bits) > 1:
            acc = acc * squares[bits[1]]
            for b in bits[2:]:
                acc *= squares[b]
        table[k] = acc
    for k in negative:
        table[k] = np.conj(table[-k])
    return table


@lru_cache(maxsize=16)
def _node_plan(poly: LaurentPolynomial):
    """What ``eval_on_nodes`` needs of ``poly``, worked out once per polynomial.

    One ``_column_plan`` per variable, and per term, in ``_exponent_matrix``
    order, its coefficient and its factors (j, e) with e != 0.  Equal
    polynomials share a plan; their coefficients are equal bit for bit, as
    the constructor adds each one to 0j, which clears a negative zero.
    """
    exps, coeffs = _exponent_matrix(poly)
    columns = tuple(_column_plan(sorted(set(col))) for col in exps.T.tolist())
    terms = tuple((coeff, tuple((j, e) for j, e in enumerate(row) if e))
                  for row, coeff in zip(exps.tolist(), coeffs))
    return columns, terms


def eval_on_nodes(poly: LaurentPolynomial, nodes: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on an (n, n_vars) block of unit-torus points.

    Row k holds the points z_j = exp(i theta_j) of node k, not its angles;
    any other shape raises ``ValueError``.  Each monomial is built per node
    from integer powers of the columns (see ``_column_powers``), so no
    transcendental is computed.  The polynomial is planned once
    (``_node_plan``, cached for the last 16 polynomials), not per call.
    Terms are summed in ``_exponent_matrix`` order, starting from the first;
    the result is the sum from zeros bit for bit.
    """
    nodes = np.asarray(nodes)
    if nodes.ndim != 2 or nodes.shape[1] != poly.n_vars:
        raise ValueError(f"nodes must have shape (n, {poly.n_vars}), got {nodes.shape}")
    columns, terms = _node_plan(poly)
    n = nodes.shape[0]
    out = np.empty(n, dtype=np.complex128)
    powers = [_column_powers(nodes[:, j], plan) for j, plan in enumerate(columns)]
    term = None
    for i, (coeff, factors) in enumerate(terms):
        if not factors:  # the constant term, last in the order
            if i:
                out += coeff
            else:
                out[...] = coeff
            continue
        if i and term is None:
            term = np.empty(n, dtype=np.complex128)
        acc = term if i else out
        (j, e), *rest = factors
        np.multiply(powers[j][e], coeff, out=acc)
        for j, e in rest:
            acc *= powers[j][e]
        if i:
            out += acc
    if terms[-1][1]:  # no constant term
        # a sum from zeros is never -0.0, this one is where every term is;
        # adding +0.0 (as a constant term does) makes that +0.0 and changes
        # nothing else
        out += 0.0
    return out


# exponent matrices of at most this many entries have their mesh plan cached:
# a d = 3 char poly's 81, a Mahler test polynomial's few dozen; a key and
# its plan then stay under ~100 KB
_MESH_PLAN_CACHE_ENTRIES = 1 << 12


def _mesh_plan(exps: np.ndarray):
    """The row order and per-axis grouping ``mesh_evaluator`` contracts an exponent matrix by.

    Rows are sorted lexicographically; for each axis j, last to first, every
    exponent e on it maps the groups of rows that share their exponents on
    axes 0..j-1 to the row holding e there (one past the last row if none).
    Its index arrays are read-only: a cached plan serves every caller.
    """
    order = np.lexsort(exps.T[::-1])
    order.setflags(write=False)
    exps = exps[order]
    plan = []
    for j in range(exps.shape[1] - 1, -1, -1):
        # the rows are sorted, so those that share exps[:, :j] are consecutive
        first = np.concatenate([[True], np.any(exps[1:, :j] != exps[:-1, :j], axis=1)])
        group = np.cumsum(first) - 1
        parts = []
        for e in sorted(set(exps[:, j].tolist())):
            rows = np.flatnonzero(exps[:, j] == e)
            src = np.full(group[-1] + 1, len(exps))  # a group without this exponent reads a zero
            src[group[rows]] = rows
            src.setflags(write=False)
            parts.append((e, src))
        plan.append((j, parts))
        exps = exps[first, :j]
    return order, plan


@lru_cache(maxsize=16)
def _cached_mesh_plan(shape: tuple[int, int], data: bytes):
    """``_mesh_plan`` of the int64 matrix of that shape and those bytes, kept for reuse."""
    return _mesh_plan(np.frombuffer(data, dtype=np.int64).reshape(shape))


def mesh_evaluator(exps, coeffs):
    """Plan sum_t c_t z^e_t, z_j = exp(i theta_j), for evaluation on open meshes.

    ``exps`` is a (T, d) matrix of distinct integer exponent rows; ``coeffs``
    has T rows, whose trailing axes are carried into the result.  The returned
    function maps an open mesh (d broadcastable angle arrays of d dimensions)
    to values of shape (mesh shape) + coeffs.shape[1:].  It contracts the axes
    last to first against per-axis tables of z_j^e, merging terms that share
    their exponents on the axes still left; that grouping (``_mesh_plan``)
    depends on ``exps`` alone and is cached for the last 16 matrices of at
    most 4096 entries.
    """
    exps = np.asarray(exps, dtype=np.int64)
    if exps.size <= _MESH_PLAN_CACHE_ENTRIES:
        order, plan = _cached_mesh_plan(exps.shape, exps.tobytes())
    else:
        order, plan = _mesh_plan(exps)
    coeffs = np.asarray(coeffs, dtype=np.complex128)[order]
    d, trail = exps.shape[1], coeffs.ndim - 1

    def evaluate(mesh):
        # axis 0 of ``out`` runs over the groups, the mesh axes follow
        out = coeffs.reshape(coeffs.shape[:1] + (1,) * d + coeffs.shape[1:])
        for j, parts in plan:
            out = np.concatenate([out, np.zeros_like(out[:1])])
            theta = np.reshape(mesh[j], np.shape(mesh[j]) + (1,) * trail)
            tables = {k: np.exp(1j * k * theta) for k in {abs(e) for e, _ in parts} - {0}}
            acc = None
            for e, src in parts:  # ascending e; terms are new arrays, shaped as acc but on axis j
                term = out[src]
                if e:
                    term = term * (tables[e] if e > 0 else np.conj(tables[-e]))
                # the e = 0 term, without a table, broadcasts to the others
                if acc is not None and (e == 0 or acc.shape == term.shape):
                    acc += term
                else:
                    acc = term if acc is None else acc + term
            out = acc
        # an axis on which every exponent is 0 is broadcast here, as a read-only view
        shape = np.broadcast_shapes(*(np.shape(a) for a in mesh)) + coeffs.shape[1:]
        return out[0] if out[0].shape == shape else np.broadcast_to(out[0], shape)

    return evaluate
