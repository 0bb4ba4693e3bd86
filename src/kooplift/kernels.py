"""Generated plain-float RK4 kernels for small continuous-time models.

Each RK4 stage of the numpy path (``sim._rk4``) makes about ten numpy calls
on arrays of two or three elements. For a small model this module writes
the source of one Python function that runs a whole zero-order-hold RK4
simulation on plain floats, straight-line within a step, and builds it with
the built-in ``compile``. Code objects are cached by their source text, so
each model is compiled once per process and the runtime stays numpy-only.

The generated code does the numpy path's floating-point operations in the
same order:

- polynomial rows are summed term by term from 0.0, as the term loop of
  :class:`~kooplift.polynomials.PolynomialMap` sums them, each term
  multiplying its powers ``x ** e`` onto its coefficient in variable order
  (``x ** 1`` is exactly ``x``, so the power is left out);
- dictionary Jacobian entries are the constants of the dictionary's small
  template or its varying monomials, evaluated the same way;
- the products ``A z``, ``dPhi/dx S`` and ``B u`` are summed left to right
  over every entry, zeros included, so a zero entry still turns an infinite
  factor into NaN;
- the stages are combined as ``_rk4`` combines them, and the divergence
  check runs inline, handing the state to ``check`` whenever a coordinate
  is not within the limit, so the numpy check decides with the same step
  and message.

The input term comes from the held-input form that defines ``g``
(``Decomposition.input_held``): the work that depends only on the held input
runs once per step instead of once per stage. The LPV kernel goes further
and reads it from one table per run: ``Kernel.table`` is the form's
``ray_table`` of every step's input, built before the loop starts, so no
step makes a Python call for it. Models with a polynomial input part,
control-affine systems among them, keep the numpy path.

numpy takes matrix products through BLAS, which may fuse a multiply and an
add into one rounding (OpenBLAS does on x86-64 with FMA3, in an order that
depends on the shape). Where a row of a product has two or more inexact
terms, a stage derivative of the numpy path can then differ from the
kernel's in its last bit; for ``ct-example`` that is one entry of
``B(x, u) u``. RK4 scales a stage by ``ts / 2`` or ``ts`` before adding it to
the state, which absorbs almost every such difference at the presets' step:
the trajectory files of both continuous-time presets are byte-identical on
the two paths over all 2 x 250k steps. The kernel's own order is the plain
one, and tests hold it to a plain-order reference bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from .dictionaries import SMALL_JACOBIAN_ENTRIES
from .systems import CONTINUOUS, Decomposition

# code objects by source text
_CODE: Dict[str, object] = {}


@dataclass(frozen=True)
class Kernel:
    """A generated RK4 run for states of width ``n`` under ``n_u`` inputs.

    ``run(rec, inp, tab, n_steps, ts, limit, check)`` reads the initial
    state from the flat record ``rec``, the inputs from the flat ``inp``
    (row k held over step k) and, for a kernel with a ``table``, the held
    values of step k from row k of the flat ``tab``, which
    ``table(inputs)`` builds from the rows of the steps; it writes state k
    into row k of ``rec`` and calls ``check(k, state)`` when a coordinate
    of state k is not within ``limit``.
    """

    run: Callable
    n: int
    n_u: int
    table: Optional[Callable] = None


def nonlinear_kernel(decomposition: Decomposition) -> Optional[Kernel]:
    """The RK4 kernel of ``f(x) + g(x, u)``, or None.

    Needs a small continuous-time system (``n_x * n_x`` and ``n_x * n_u``
    at most ``SMALL_JACOBIAN_ENTRIES``) with ``f`` a term-loop polynomial map
    and ``g`` given by its held-input form.
    """
    n_x, n_u = decomposition.n_x, decomposition.n_u
    f = decomposition.autonomous
    held = decomposition.input_held
    if not (
        decomposition.time_domain == CONTINUOUS
        and held is not None
        and _small(n_x * n_x, n_x * n_u)
        and f.scalar_terms is not None
    ):
        return None
    prologue = ["driven = HELD.driven", "driven_at = HELD.driven_at"]
    step = [f"h = driven(({', '.join(_names('u', n_u))},))"]

    def stage(v, out):
        g = _names("g", n_x)
        return [f"{', '.join(g)}, = driven_at(({', '.join(v)},), h)"] + [
            f"{o} = ({_row(terms, v)}) + {gi}"
            for o, terms, gi in zip(out, f.scalar_terms, g)
        ]

    return _build(n_x, n_u, prologue, step, stage, {"HELD": held})


def lpv_kernel(model) -> Optional[Kernel]:
    """The RK4 kernel of the lifted model ``A z + B(x, u) u``, or None.

    Needs a small continuous-time model (``n_f * n_x``, ``n_f * n_f`` and
    ``n_f * n_u`` at most ``SMALL_JACOBIAN_ENTRIES``), the dictionary's small
    Jacobian template, and the held-input form (``input_held``); the ray
    quadrature is the model's own (``quad``).
    """
    held = model.input_held
    dictionary = model.dictionary
    n_f, n_u = model.n_f, model.n_u
    u = _names("u", n_u)
    if (
        held is None
        or model.time_domain != CONTINUOUS
        or dictionary.small_jacobian is None
        or not _small(n_f * dictionary.n_x, n_f * n_f, n_f * n_u)
    ):
        return None
    factored = _held_factored(dictionary, n_u)
    nodes, weights = model.quad.rule()
    width = len(held.jacobian((0.0,) * n_u))
    step = [
        f"h = ({', '.join(f'tab[t + {j}]' for j in range(width))},)",
        f"t += {width}",
    ]
    A = [[_literal(a) for a in row] for row in model.A.tolist()]
    selector = dictionary.state_selector

    def stage(v, out):
        lines, B = factored([v[i] for i in selector])
        return lines + [
            f"{o} = ({_dot(a_row, v)}) + ({_dot(b_row, u)})"
            for o, a_row, b_row in zip(out, A, B)
        ]

    return _build(
        n_f,
        n_u,
        ["jacobian_at = HELD.jacobian_at", "t = 0"],
        step,
        stage,
        {"HELD": held},
        table=lambda inputs: held.ray_table(inputs, nodes, weights),
    )


# ---------------------------------------------------------------------------
# source emission
# ---------------------------------------------------------------------------


def _small(*entries: int) -> bool:
    return all(e <= SMALL_JACOBIAN_ENTRIES for e in entries)


def _names(prefix: str, n: int) -> List[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _literal(value: float) -> str:
    """Source text of a float that evaluates to exactly that float."""
    value = float(value)
    if not math.isfinite(value):
        return f"float('{value}')"
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


def _monomial(coeff: float, powers, names: Sequence[str]) -> str:
    """The coefficient times each power, in variable order."""
    factors = [names[i] if e == 1 else f"{names[i]} ** {e}" for i, e in powers]
    return " * ".join([_literal(coeff)] + factors)


def _row(terms, names: Sequence[str]) -> str:
    """One polynomial row, summed from 0.0 in term order."""
    return " + ".join(["0.0"] + [_monomial(c, powers, names) for c, powers in terms])


def _dot(left: Sequence[str], right: Sequence[str]) -> str:
    return " + ".join(f"{a} * {b}" for a, b in zip(left, right))


def _held_factored(dictionary, n_u):
    """Emitter of B = dPhi/dx(x) S(x, u), S from the held-input form."""
    n_x, n_f = dictionary.n_x, dictionary.n_f
    template, varying = dictionary.small_jacobian
    S = [[f"s{i}_{j}" for j in range(n_u)] for i in range(n_x)]
    B = [[f"b{r}_{j}" for j in range(n_u)] for r in range(n_f)]

    def emit(x):
        flat = [name for row in S for name in row]
        lines = [f"{', '.join(flat)}, = jacobian_at(({', '.join(x)},), h)"]
        J = [[_literal(v) for v in row] for row in template.tolist()]
        for r, i, coeff, powers in varying:
            J[r][i] = f"j{r}_{i}"
            lines.append(f"j{r}_{i} = {_monomial(coeff, powers, x)}")
        for r in range(n_f):
            for j in range(n_u):
                column = [S[i][j] for i in range(n_x)]
                lines.append(f"{B[r][j]} = {_dot(J[r], column)}")
        return lines, B

    return emit


def _build(n, n_u, prologue, step, stage, names, table=None) -> Kernel:
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
        "def rk4(rec, inp, tab, n_steps, ts, limit, check):",
        *(f"    {line}" for line in prologue),
        "    half = 0.5 * ts",
        "    sixth = ts / 6.0",
        *(f"    {xi} = rec[{j}]" for j, xi in enumerate(x)),
        "    i = 0",
        "    for k in range(n_steps):",
        *(f"        {line}" for line in body),
    ]
    source = "\n".join(lines) + "\n"
    code = _CODE.get(source)
    if code is None:
        code = _CODE[source] = compile(source, "<kooplift.kernels>", "exec")
    namespace = dict(names)
    exec(code, namespace)
    return Kernel(namespace["rk4"], n, n_u, table)
