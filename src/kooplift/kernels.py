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
  entry, zeros included, so a zero entry still turns an infinite factor
  into NaN;
- the stages are combined as ``_rk4`` combines them, and an inline
  prefilter hands the state to ``check`` whenever a coordinate is not
  within the (finite) limit, so the numpy rule,
  :func:`kooplift.sim.diverged`, decides with the same step and message;
- a power ``x ** e`` past the float range raises ``OverflowError`` where
  the numpy path's power (:func:`kooplift.polynomials.power`) gives a
  signed inf, which turns that step's state non-finite; the kernel catches
  it and hands ``check`` an infinite state at that step.

The input part is data, so nothing in a step calls back into Python code
of the library:

- the input features are formed once per step, as
  :meth:`~kooplift.systems.Decomposition.features` forms them:
  ``z_k = d_k * u_j``, ``E_k = expm1(z_k)`` with the same helper
  (:func:`kooplift.systems.expm1`), and ``F_k = d_k * (E_k / z_k)``, or
  ``d_k`` at ``z_k = 0``;
- ``g(x, u)`` and the entries of ``B(x, u)`` are the rows of the
  decomposition's ``input_polynomial`` over (x, u, E) and of the lift's
  ``input_columns`` over (x, u, F), written out as polynomial rows.

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
from typing import Callable, Dict, List, Optional, Sequence

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


def nonlinear_kernel(decomposition: Decomposition) -> Optional[Kernel]:
    """The RK4 kernel of ``f(x) + g(x, u)``, or None.

    Needs a small continuous-time system: ``n_x * n_x`` and ``n_x * n_u``
    at most ``MAX_ENTRIES``.
    """
    n_x, n_u = decomposition.n_x, decomposition.n_u
    if decomposition.time_domain != CONTINUOUS or not _small(n_x * n_x, n_x * n_u):
        return None
    inputs = _names("u", n_u) + _names("e", len(decomposition.exponentials))

    def stage(v, out):
        f = _rows(decomposition.autonomous, v)
        g = _rows(decomposition.input_polynomial, v + inputs)
        return [f"{o} = ({fr}) + ({gr})" for o, fr, gr in zip(out, f, g)]

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
    A = [[_literal(a) for a in row] for row in model.A.tolist()]
    selector = model.dictionary.state_selector
    B = [[f"b{r}_{j}" for j in range(n_u)] for r in range(n_f)]

    def stage(v, out):
        x = [v[i] for i in selector]
        lines = [
            f"{B[r][j]} = {entry}"
            for j, column in enumerate(model.input_columns)
            for r, entry in enumerate(_rows(column, x + inputs))
        ]
        return lines + [
            f"{o} = ({_dot(a_row, v)}) + ({_dot(b_row, u)})"
            for o, a_row, b_row in zip(out, A, B)
        ]

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


def _rows(poly, names: Sequence[str]) -> List[str]:
    """Each row of ``poly`` over the variables ``names``, summed from 0.0
    in term order; each term multiplies its powers onto its coefficient in
    variable order."""
    terms = poly.arrays
    rows = [["0.0"] for _ in range(terms.n_rows)]
    for r, exps, c in zip(terms.row.tolist(), terms.exps.T.tolist(), terms.coeff.tolist()):
        factors = [names[i] if e == 1 else f"{names[i]} ** {e}" for i, e in enumerate(exps) if e]
        rows[r].append(" * ".join([_literal(c)] + factors))
    return [" + ".join(row) for row in rows]


def _features(exponentials, kind: str) -> List[str]:
    """Per-step source of the input features ``e_k`` (``kind`` "e") or
    ``f_k`` ("f"), as ``Decomposition.features`` forms them."""
    lines = []
    for k, (j, d) in enumerate(exponentials):
        d = _literal(d)
        lines += [f"z{k} = {d} * u{j}", f"e{k} = expm1(z{k})"]
        if kind == "f":
            lines.append(f"f{k} = {d} * (e{k} / z{k}) if z{k} else {d}")
    return lines


def _dot(left: Sequence[str], right: Sequence[str]) -> str:
    return " + ".join(f"{a} * {b}" for a, b in zip(left, right))


def _build(n, n_u, step, stage) -> Kernel:
    """The whole RK4 run around ``stage(inputs, outputs)``, compiled."""
    x, y = _names("x", n), _names("y", n)
    k1, k2, k3, k4 = (_names(f"k{s}_", n) for s in range(1, 5))
    body = [f"u{j} = inp[i + {j}]" for j in range(n_u)] + step
    body += stage(x, k1)
    body += [f"{a} = {b} + half * {c}" for a, b, c in zip(y, x, k1)]
    body += stage(y, k2)
    body += [f"{a} = {b} + half * {c}" for a, b, c in zip(y, x, k2)]
    body += stage(y, k3)
    body += [f"{a} = {b} + ts * {c}" for a, b, c in zip(y, x, k3)]
    body += stage(y, k4)
    body += [
        f"{xi} = {xi} + sixth * ({a} + 2.0 * ({b} + {c}) + {d})"
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    ]
    body += [
        f"if not ({' and '.join(f'abs({xi}) <= limit' for xi in x)}):",
        f"    check(k + 1, ({', '.join(x)},))",
        f"r = (k + 1) * {n}",
        *(f"rec[r + {j}] = {xi}" for j, xi in enumerate(x)),
        f"i += {n_u}",
    ]
    lines = [
        "def rk4(rec, inp, n_steps, ts, limit, check):",
        "    half = 0.5 * ts",
        "    sixth = ts / 6.0",
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
    return Kernel(namespace["rk4"], n, n_u)
