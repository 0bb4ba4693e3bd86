"""Generated plain-float RK4 kernels for small continuous-time models.

Each RK4 stage of the numpy path (``sim._rk4``) makes about ten numpy calls
on arrays of two or three elements. For a small model this module writes
the source of one Python function that runs a whole zero-order-hold RK4
simulation on plain floats, straight-line within a step, and builds it with
the built-in ``compile``. Code objects are cached by their source text, so
each model is compiled once per process and the runtime stays numpy-only.

The generated code does the numpy path's floating-point operations in the
same order:

- polynomial rows are summed term by term from 0.0, in the term order in
  which both evaluation forms of :class:`~kooplift.polynomials.PolynomialMap`
  sum them, each term multiplying its powers ``x ** e`` onto its
  coefficient in variable order (``x ** 1`` is exactly ``x``, so the power
  is left out);
- the products ``A z`` and ``B u`` are summed left to right over every
  entry, zeros included: ``0.0 * y`` carries the sign of zero and turns an
  infinite factor into NaN;
- exact unit factors are left out, since ``1.0 * y`` is ``y`` bit for bit:
  a coefficient or an entry of ``A`` of 1.0, and a feature rate
  ``d = 1.0``; one of -1.0 becomes a negation, ``s + (-1.0) * y`` the
  subtraction ``s - y``;
- the stages are combined as ``_rk4`` combines them, and an inline
  prefilter, ``-limit <= x <= limit`` for each coordinate, hands the state
  to ``check`` whenever a coordinate is not within the (finite) limit, NaN
  included, so the numpy rule, :func:`kooplift.sim.diverged`, decides with
  the same step and message;
- a power ``x ** e`` past the float range raises ``OverflowError`` where
  the numpy path's power (:func:`kooplift.polynomials.power`) gives a
  signed inf, which turns that step's state non-finite; the kernel catches
  it and hands ``check`` an infinite state at that step.

The input part is data, so nothing in a step calls back into Python code
of the library. Each step has a preamble, and the four RK4 stages compute
only what reads the stage's state:

- the preamble forms the input features as
  :meth:`~kooplift.systems.Decomposition.features` forms them:
  ``z_k = d_k * u_j``, ``E_k = expm1(z_k)`` with the same helper
  (:func:`kooplift.systems.expm1`), and ``F_k = d_k * (E_k / z_k)``, or
  ``d_k`` at ``z_k = 0``;
- ``g(x, u)`` and the entries of ``B(x, u)`` are the rows of the
  decomposition's ``input_polynomial`` over (x, u, E) and of the lift's
  ``input_columns`` over (x, u, F), written out as polynomial rows;
- the preamble also forms every value of a stage that reads no state
  coordinate: each input-only term of those rows (``u0 * u1`` in the
  source of ``ct-example``'s ``g``), each input-only entry of ``B`` with
  its product ``B[r, j] * u_j`` (``0.5 * u1``), and the leading run of
  input-only items of a sum. Each is named once, keeps its place in its
  sum, and rounds as it would within the stage.

A step calls ``expm1`` once per feature; no RK4 stage makes a call.

numpy takes matrix products through BLAS, which may fuse a multiply and an
add into one rounding (OpenBLAS does on x86-64 with FMA3, in an order that
depends on the shape). Where a row of a product has two or more inexact
terms, a stage derivative of the numpy path can then differ from the
kernel's in its last bit; for ``ct-example`` that is one entry of
``B(x, u) u``. RK4 scales a stage by ``ts / 2`` or ``ts`` before adding it to
the state, which absorbs most such differences at the presets' step: over
250k steps the multisine preset's lifted run is byte-identical on the two
paths, the white-noise preset's differs in the last bit at 10,368 rows. The
kernel's own order is the plain one, and tests hold it to a plain-order
reference bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .systems import CONTINUOUS, Decomposition, expm1

# a model gets a kernel while each of its matrices has at most this many
# entries; larger ones take the numpy path
MAX_ENTRIES = 64

# code objects by source text
_CODE: Dict[str, object] = {}


@dataclass(frozen=True)
class Kernel:
    """A generated RK4 run for states of width ``n`` under ``n_u`` inputs.

    ``run(rec, inp, n_steps, ts, limit, check)`` reads the initial state
    from the flat record ``rec`` and the inputs from the flat ``inp`` (row
    k held over step k); it writes state k into row k of ``rec`` and calls
    ``check(k, state)`` when a coordinate of state k is not within
    ``limit``.
    """

    run: Callable
    n: int
    n_u: int
    source: str


def nonlinear_kernel(decomposition: Decomposition) -> Optional[Kernel]:
    """The RK4 kernel of ``f(x) + g(x, u)``, or None.

    Needs a small continuous-time system: ``n_x * n_x`` and ``n_x * n_u``
    at most ``MAX_ENTRIES``.
    """
    n_x, n_u = decomposition.n_x, decomposition.n_u
    if decomposition.time_domain != CONTINUOUS or not _small(n_x * n_x, n_x * n_u):
        return None
    inputs = _names("u", n_u) + _names("e", len(decomposition.exponentials))

    def stage(v, out, hoist):
        f = _rows(decomposition.autonomous, v, n_x, hoist)
        g = _rows(decomposition.input_polynomial, v + inputs, n_x, hoist)
        return [
            f"{o} = {_sum([_item(fr), _item(gr)], hoist)[0]}" for o, fr, gr in zip(out, f, g)
        ]

    return _build(n_x, n_u, _features(decomposition.exponentials, "e"), stage)


def lpv_kernel(model) -> Optional[Kernel]:
    """The RK4 kernel of the lifted model ``A z + B(x, u) u``, or None.

    Needs a small continuous-time model: ``n_f * n_f`` and ``n_f * n_u`` at
    most ``MAX_ENTRIES``. ``B`` is read from the lift's ``input_columns``
    at ``x = z[state_selector]``.
    """
    n_f, n_u = model.n_f, model.n_u
    if model.time_domain != CONTINUOUS or not _small(n_f * n_f, n_f * n_u):
        return None
    exponentials = model.decomposition.exponentials
    u = _names("u", n_u)
    inputs = u + _names("f", len(exponentials))
    A = model.A.tolist()
    selector = model.dictionary.state_selector

    def stage(v, out, hoist):
        x = [v[i] for i in selector]
        columns = [_rows(column, x + inputs, len(x), hoist) for column in model.input_columns]
        lines = []
        for r, (o, a_row) in enumerate(zip(out, A)):
            Az = _sum([(*_product(a, [vi]), True) for a, vi in zip(a_row, v)], hoist)
            entries = (column[r] for column in columns)
            Bu = _sum(
                [("+", f"{_group(b)} * {uj}", varying) for uj, (b, varying) in zip(u, entries)],
                hoist,
            )
            lines.append(f"{o} = {_sum([_item(Az), _item(Bu)], hoist)[0]}")
        return lines

    return _build(n_f, n_u, _features(exponentials, "f"), stage)


# ---------------------------------------------------------------------------
# source emission
# ---------------------------------------------------------------------------


def _small(*entries: int) -> bool:
    return all(e <= MAX_ENTRIES for e in entries)


def _names(prefix: str, n: int) -> List[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _literal(value: float) -> str:
    """Source text of a float that evaluates to exactly that float."""
    value = float(value)
    if not math.isfinite(value):
        return f"float('{value}')"
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


def _atomic(text: str) -> bool:
    """Whether ``text`` is a name or a literal: nothing to compute."""
    return " " not in text and not text.startswith(("-", "float("))


def _group(text: str) -> str:
    return text if _atomic(text) else f"({text})"


def _item(summed: Tuple[str, bool]) -> Tuple[str, str, bool]:
    """A sum from :func:`_sum` as one item of another sum."""
    text, varying = summed
    return "+", _group(text), varying


class _Preamble:
    """The values of a step that read no state coordinate, each formed once
    per step under the name ``p0, p1, ...`` and read by every RK4 stage."""

    def __init__(self):
        self.names: Dict[str, str] = {}

    def __call__(self, text: str) -> str:
        """The name of the per-step value ``text``, or ``text`` itself when it
        is a name or a literal."""
        if _atomic(text):
            return text
        if text not in self.names:
            self.names[text] = f"p{len(self.names)}"
        return self.names[text]

    def lines(self) -> List[str]:
        return [f"{name} = {text}" for text, name in self.names.items()]


def _product(c: float, factors: List[str]) -> Tuple[str, str]:
    """``(sign, body)`` of the coefficient ``c`` times ``factors``: a unit
    coefficient is left out (``1.0 * y`` is ``y`` exactly) or becomes the
    sign (``(-1.0) * y`` is ``-y``, and ``s + (-y)`` is ``s - y``)."""
    if factors and c in (1.0, -1.0):
        return ("+" if c > 0 else "-"), " * ".join(factors)
    return "+", " * ".join([_literal(c)] + factors)


def _sum(items, hoist: _Preamble) -> Tuple[str, bool]:
    """Source of the left-to-right sum of ``items``, ``(sign, body,
    varying)`` triples whose ``varying`` says whether the body reads a state
    coordinate, and whether the sum does. The sum's leading run of
    input-only items, and every later input-only body, are formed once per
    step by ``hoist``; they round as they would within the sum."""
    n = next((i for i, item in enumerate(items) if item[2]), len(items))
    head = [("+", hoist(_join(items[:n])), False)] if n else []
    rest = [(s, body if varying else hoist(body), varying) for s, body, varying in items[n:]]
    return _join(head + rest), n < len(items)


def _join(items) -> str:
    first = _signed(*items[0][:2])
    return " ".join([first] + [f"{sign} {body}" for sign, body, _ in items[1:]])


def _signed(sign: str, body: str) -> str:
    return body if sign == "+" else f"-{body}"


def _rows(poly, names: Sequence[str], n_state: int, hoist: _Preamble) -> List[Tuple[str, bool]]:
    """Each row of ``poly`` over the variables ``names``, of which the first
    ``n_state`` are state coordinates, summed from 0.0 in term order, with
    whether it reads the state (see :func:`_sum`); each term multiplies its
    powers onto its coefficient in variable order."""
    terms = poly.arrays
    rows = [[("+", "0.0", False)] for _ in range(terms.n_rows)]
    for r, exps, c in zip(terms.row.tolist(), terms.exps.T.tolist(), terms.coeff.tolist()):
        factors = [names[i] if e == 1 else f"{names[i]} ** {e}" for i, e in enumerate(exps) if e]
        varying = any(exps[:n_state])
        rows[r].append((*_product(c, factors), varying))
    return [_sum(row, hoist) for row in rows]


def _features(exponentials, kind: str) -> List[str]:
    """Per-step source of the input features ``e_k`` (``kind`` "e") or
    ``f_k`` ("f"), as ``Decomposition.features`` forms them; a unit rate
    ``d`` is left out as :func:`_product` leaves it out."""
    lines = []
    for k, (j, d) in enumerate(exponentials):
        z = f"u{j}"
        if d != 1.0:
            z = f"z{k}"
            lines.append(f"{z} = {_signed(*_product(d, [f'u{j}']))}")
        lines.append(f"e{k} = expm1({z})")
        if kind == "f":
            ratio = f"e{k} / {z}" if d == 1.0 else _signed(*_product(d, [f"(e{k} / {z})"]))
            lines.append(f"f{k} = {ratio} if {z} else {_literal(d)}")
    return lines


def _build(n, n_u, features, stage) -> Kernel:
    """The whole RK4 run around ``stage(inputs, outputs, hoist)``, compiled.

    The per-step preamble reads the inputs, forms the ``features`` and then
    every value the stages hand to ``hoist``."""
    x, y = _names("x", n), _names("y", n)
    k1, k2, k3, k4 = (_names(f"k{s}_", n) for s in range(1, 5))
    hoist = _Preamble()
    stages = [stage(v, k, hoist) for v, k in ((x, k1), (y, k2), (y, k3), (y, k4))]
    body = [f"u{j} = inp[i + {j}]" for j in range(n_u)] + features + hoist.lines()
    body += stages[0]
    body += [f"{a} = {b} + half * {c}" for a, b, c in zip(y, x, k1)]
    body += stages[1]
    body += [f"{a} = {b} + half * {c}" for a, b, c in zip(y, x, k2)]
    body += stages[2]
    body += [f"{a} = {b} + ts * {c}" for a, b, c in zip(y, x, k3)]
    body += stages[3]
    body += [
        f"{xi} = {xi} + sixth * ({a} + 2.0 * ({b} + {c}) + {d})"
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    ]
    body += [
        # -limit <= x <= limit is abs(x) <= limit, NaN included
        f"if not ({' and '.join(f'low <= {xi} <= limit' for xi in x)}):",
        f"    check(k + 1, ({', '.join(x)},))",
        f"r = (k + 1) * {n}",
        *(f"rec[r + {j}] = {xi}" for j, xi in enumerate(x)),
        f"i += {n_u}",
    ]
    lines = [
        "def rk4(rec, inp, n_steps, ts, limit, check):",
        "    half = 0.5 * ts",
        "    sixth = ts / 6.0",
        "    low = -limit",
        *(f"    {xi} = rec[{j}]" for j, xi in enumerate(x)),
        "    i = 0",
        "    for k in range(n_steps):",
        "        try:",
        *(f"            {line}" for line in body),
        # a power past the float range, where numpy's gives inf and the
        # numpy path's state turns non-finite in this step
        "        except OverflowError:",
        f"            check(k + 1, (inf,) * {n})",
    ]
    source = "\n".join(lines) + "\n"
    code = _CODE.get(source)
    if code is None:
        code = _CODE[source] = compile(source, "<kooplift.kernels>", "exec")
    namespace = {"expm1": expm1, "inf": math.inf}
    exec(code, namespace)
    return Kernel(namespace["rk4"], n, n_u, source)
