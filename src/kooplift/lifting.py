"""Construction of exact lifted models.

Given a decomposition f_d = f + g and a dictionary of observables, this
module builds the lifted dynamics

    continuous time:   d/dt Phi(x) = A Phi(x) + B_in(x, u)
    discrete time:     Phi(x+)     = A Phi(x) + B_in(x, u)

where A comes from the span condition on the autonomous part. The input
term B_in is factorised as B_in(x, u) = B(x, u) u by integrating its
input-Jacobian along the ray from 0 to u, which is what turns the lifted
model into a linear parameter-varying system.

A polynomial input part g(x, u), one map over the joint variables (x, u),
takes a fully symbolic path in both time domains: one joint expansion,
Phi(f + g) in discrete time and (dPhi/dx)(f + g) in continuous time, gives
A from its input-free terms, the input term from the rest and the columns
of B(x, u) by lowering each input exponent. All three are computed on
coefficients, so they are exact. A continuous-time input part given in its
held-input form takes A from the same expansion with no inputs, the input
term as (dPhi/dx)(x) g(x, u) and B(x, u) by Gauss-Legendre quadrature of
the ray integral.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .dictionaries import ObservableDictionary
from .errors import DimensionError, InvariantSubspaceViolation
from .lpv import output_matrix
from .polynomials import (
    PolynomialMap,
    TermArrays,
    compose_rows,
    graded,
    multiply_rows,
)
from .quadrature import QuadratureSpec
from .systems import CONTINUOUS, DISCRETE, Decomposition, HeldInput

log = logging.getLogger(__name__)

DEFAULT_SPAN_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# coefficient matching against the dictionary span
# ---------------------------------------------------------------------------


def match_rows_to_span(
    rows: TermArrays, dictionary: ObservableDictionary
) -> Tuple[np.ndarray, float, List[tuple]]:
    """Express polynomial rows as linear combinations of the observables.

    Returns the coefficient matrix (one row per input polynomial, one column
    per observable), the largest absolute coefficient that could not be
    matched, and the offending monomials. With distinct monomial observables
    the matching is a direct assignment and therefore exact; dictionaries
    with repeated monomials fall back to a least-squares solve and the
    linear dependence is reported.
    """
    positions: Dict[tuple, List[int]] = {}
    for k, obs in enumerate(dictionary.observables):
        positions.setdefault(obs.exponents, []).append(k)
    n_f = dictionary.n_f
    coeffs = np.zeros((rows.n_rows, n_f))
    if all(len(v) == 1 for v in positions.values()):
        keys = list(map(tuple, rows.exps.T.tolist()))
        column = np.array([positions.get(k, (-1,))[0] for k in keys], dtype=np.intp)
        hit = column >= 0
        coeffs[rows.row[hit], column[hit]] = rows.coeff[hit]
        residual = float(np.abs(rows.coeff[~hit]).max(initial=0.0))
        return coeffs, residual, graded({k for k, c in zip(keys, column.tolist()) if c < 0})

    log.warning(
        "dictionary contains repeated monomials; span matching uses a "
        "minimum-norm least-squares solve"
    )
    rows = rows.to_rows()
    union = graded({exps for row in rows for exps in row} | set(positions))
    mono_index = {exps: m for m, exps in enumerate(union)}
    incidence = np.zeros((len(union), n_f))
    for exps, ks in positions.items():
        for k in ks:
            incidence[mono_index[exps], k] = 1.0
    targets = np.zeros((len(union), len(rows)))
    for r, row in enumerate(rows):
        for exps, c in row.items():
            targets[mono_index[exps], r] = c
    solution, _, rank, _ = np.linalg.lstsq(incidence, targets, rcond=None)
    if rank < n_f:
        log.warning("span matching is rank deficient (rank %d < %d)", rank, n_f)
    leftover = targets - incidence @ solution
    residual = float(np.max(np.abs(leftover))) if leftover.size else 0.0
    missing = [
        union[m]
        for m in range(len(union))
        if np.max(np.abs(leftover[m])) > 1e-14
    ]
    return solution.T, residual, missing


def compute_A_ct(
    f_c: PolynomialMap,
    dictionary: ObservableDictionary,
    span_tolerance: float = DEFAULT_SPAN_TOLERANCE,
    strict: bool = True,
) -> Tuple[np.ndarray, float]:
    """State-transition matrix of the continuous-time lifted dynamics.

    Expands (dPhi/dx) f_c row-wise in the monomial basis and matches the
    coefficients against the dictionary. The residual is the largest
    absolute coefficient of any monomial outside the span.
    """
    A, residual, _, _ = _symbolic_lift(
        f_c, _no_input(dictionary.n_x), dictionary, CONTINUOUS, span_tolerance, strict
    )
    return A, residual


def compute_A_dt(
    f: PolynomialMap,
    dictionary: ObservableDictionary,
    span_tolerance: float = DEFAULT_SPAN_TOLERANCE,
    strict: bool = True,
) -> Tuple[np.ndarray, float]:
    """State-transition matrix of the discrete-time lifted dynamics.

    Composes each observable with the autonomous map symbolically and
    matches coefficients, enforcing ``Phi o f  in  span(Phi)``.
    """
    A, residual, _, _ = _symbolic_lift(
        f, _no_input(dictionary.n_x), dictionary, DISCRETE, span_tolerance, strict
    )
    return A, residual


# ---------------------------------------------------------------------------
# the symbolic lift of polynomial systems
# ---------------------------------------------------------------------------


def _no_input(n_x: int) -> PolynomialMap:
    """g = 0 over the state alone: the lift of the autonomous part."""
    return PolynomialMap(n_x, [{}] * n_x)


def _lifted_rows(
    f: PolynomialMap,
    g: PolynomialMap,
    dictionary: ObservableDictionary,
    time_domain: str,
) -> TermArrays:
    """Rows of Phi(f + g) in discrete time, of (dPhi/dx)(f + g) in
    continuous time, over the joint variables (x, u) of ``g``.

    The components f + g are the terms of both, f's padded with zero input
    exponents; no key is in both, since every term of g has an input
    exponent. Discrete time composes every observable with the components
    (:func:`compose_rows`). Continuous time forms row r as
    sum_i e_i x^(e - 1_i) (f + g)[i], summed over i in order, as one
    :func:`multiply_rows` call.
    """
    free, driven = f.arrays, g.arrays
    components = TermArrays(
        np.concatenate([free.row, driven.row]),
        np.hstack([np.pad(free.exps, ((0, g.n_vars - f.n_vars), (0, 0))), driven.exps]),
        np.concatenate([free.coeff, driven.coeff]),
        f.n_out,
    ).canonical()
    exponents = dictionary.exponents
    if time_domain == DISCRETE:
        return compose_rows(exponents, components)
    r, i = np.nonzero(exponents)
    lowered = np.zeros((components.exps.shape[0], r.shape[0]), dtype=np.intp)
    lowered[: dictionary.n_x] = exponents.T[:, r]
    lowered[i, np.arange(r.shape[0])] -= 1
    derivative = TermArrays(r, lowered, exponents[r, i].astype(float), dictionary.n_f)
    return multiply_rows(derivative, components, i)


def _symbolic_lift(
    f: PolynomialMap,
    g: PolynomialMap,
    dictionary: ObservableDictionary,
    time_domain: str,
    span_tolerance: float = DEFAULT_SPAN_TOLERANCE,
    strict: bool = True,
) -> Tuple[np.ndarray, float, PolynomialMap, List[PolynomialMap]]:
    """A, its span residual, the input term and the columns of B(x, u) of a
    polynomial system f(x) + g(x, u), from one joint expansion.

    The lifted rows (:func:`_lifted_rows`) are expanded once over the joint
    variables (x, u). Their input-free terms are the rows of Phi o f (or of
    (dPhi/dx) f) bit for bit: no product with an input exponent has an
    input-free key, and the input-free products of a key are summed in the
    order the separate expansion sums them. So they give A by span matching. Their input terms
    are the input term, with B_in(x, 0) = 0 holding identically. The ray
    integral of the factorisation has a closed form on monomials: a term
    c x^a u^b of the input term contributes c * (b_j / |b|) * x^a u^(b - e_j)
    to column j. The input term and the columns are maps over (x, u).

    Dropping terms keeps the graded order of the lifted rows, and so does
    lowering u_j in every term of a column; each lowered exponent comes from
    one term alone. So every row is already canonical, and the maps are
    built from the arrays as they are.
    """
    n_x, n_u = dictionary.n_x, g.n_vars - dictionary.n_x
    if f.n_vars != n_x or f.n_out != n_x:
        raise DimensionError("autonomous dynamics and dictionary dimensions differ")
    rows = _lifted_rows(f, g, dictionary, time_domain)
    driven = rows.exps[n_x:].any(axis=0)
    free = rows.select(~driven)
    A, residual, missing = match_rows_to_span(free._replace(exps=free.exps[:n_x]), dictionary)
    if strict and residual > span_tolerance:
        raise InvariantSubspaceViolation(
            f"lifted dynamics leave the dictionary span (residual {residual:.3e}; "
            f"missing monomials {missing})",
            residual=residual,
            missing=missing,
        )
    inputs = rows.select(driven)
    beta = inputs.exps[n_x:]
    deg_u = beta.sum(axis=0)
    columns = []
    for j in range(n_u):
        value = inputs.coeff * (beta[j] / deg_u)
        keep = (beta[j] > 0) & (value != 0.0)
        exps = np.compress(keep, inputs.exps, axis=1)
        exps[n_x + j] -= 1
        columns.append(
            PolynomialMap._from_arrays(
                n_x + n_u, TermArrays(inputs.row[keep], exps, value[keep], inputs.n_rows)
            )
        )
    return A, residual, PolynomialMap._from_arrays(n_x + n_u, inputs), columns


# ---------------------------------------------------------------------------
# lifted model assembly
# ---------------------------------------------------------------------------


STACK_ZU = "stack-zu"
STACK_Z = "stack-z"


@dataclass
class LiftedModel:
    """Exact (or residual-flagged approximate) lifted dynamics.

    ``input_term(x, u)`` evaluates the lifted forcing; ``factored_input``
    returns the matrix B with ``B(x, u) u = input_term(x, u)``. A symbolic
    lift takes both from one joint expansion over (x, u) and evaluates them
    at ``[x; u]`` in either time domain. When the factored matrix does not
    depend on the input (continuous-time control-affine systems),
    ``input_dependent`` is False and the scheduling drops u. ``input_held``
    is the held-input form that defines ``g`` (see
    :class:`~kooplift.systems.HeldInput`), kept for the continuous-time
    simulation kernels; ``factored_input`` and the kernels take B from its
    ray table on the quadrature ``quad``.

    The model is linear parameter-varying as it stands:

        z+ (or dz/dt) = A z + B(x, u) u,        x = C z,

    scheduled on [z; u] (``scheduling`` "stack-zu"), or on z alone
    ("stack-z") when B is state-only. Every simulation, fit and bound takes
    B through ``factored_input``. The state is recovered through the
    dictionary's identity observables; ``C`` is built on first use.
    """

    A: np.ndarray
    input_term: Callable[[np.ndarray, np.ndarray], np.ndarray]
    factored_input: Callable[[np.ndarray, np.ndarray], np.ndarray]
    time_domain: str
    residual: float
    exact: bool
    dictionary: ObservableDictionary
    n_u: int
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)
    input_dependent: bool = True
    factored_batch: Optional[Callable] = None
    input_held: Optional[HeldInput] = None
    name: str = "lifted-model"

    @property
    def n_f(self) -> int:
        return self.A.shape[0]

    @property
    def n_x(self) -> int:
        return self.dictionary.n_x

    @cached_property
    def C(self) -> np.ndarray:
        """x = C z; raises ValueError for a dictionary without identity
        observables."""
        return output_matrix(self.dictionary)

    @property
    def scheduling(self) -> str:
        if self.time_domain == CONTINUOUS and not self.input_dependent:
            return STACK_Z
        return STACK_ZU

    def to_document(self) -> dict:
        return {
            "kind": "lifted-model",
            "name": self.name,
            "time_domain": self.time_domain,
            "n_f": self.n_f,
            "n_u": self.n_u,
            "A": [[float(v) for v in row] for row in self.A],
            "residual": float(self.residual),
            "exact": bool(self.exact),
            "dictionary": self.dictionary.describe(),
            "quadrature_nodes": self.quad.nodes,
            "input_dependent": bool(self.input_dependent),
        }

    def lpv_document(self) -> dict:
        return {
            "kind": "lpv-koopman-model",
            "name": self.name,
            "time_domain": self.time_domain,
            "scheduling": self.scheduling,
            "n_f": self.n_f,
            "n_u": self.n_u,
            "A": [[float(v) for v in row] for row in self.A],
            "C": [[float(v) for v in row] for row in self.C],
            "dictionary": self.dictionary.describe(),
        }


def build_lifted_model(
    decomposition: Decomposition,
    dictionary: ObservableDictionary,
    quad: QuadratureSpec = QuadratureSpec(),
    span_tolerance: float = DEFAULT_SPAN_TOLERANCE,
    strict: bool = True,
    name: Optional[str] = None,
) -> LiftedModel:
    """Assemble the lifted model for a decomposed system.

    A comes from the symbolic lift and the model is exact when the span
    residual is at (floating point) zero; with ``strict`` a span violation
    raises instead of marking the model approximate. The input term and
    B(x, u) come from the same expansion when the decomposition has its
    ``input_polynomial``; otherwise (continuous time only) from its
    ``input_held`` form, scheduled on [z; u].
    """
    time_domain = decomposition.time_domain
    g = decomposition.input_polynomial
    A, residual, symbolic_term, columns = _symbolic_lift(
        decomposition.autonomous,
        g if g is not None else _no_input(dictionary.n_x),
        dictionary,
        time_domain,
        span_tolerance,
        strict,
    )

    if g is not None:

        def term(x, u, _poly=symbolic_term):
            point = np.concatenate(
                [np.asarray(x, dtype=float), np.asarray(u, dtype=float)]
            )
            return _poly.evaluate(point)

        def factored(x, u, _columns=columns):
            point = np.concatenate(
                [np.asarray(x, dtype=float), np.asarray(u, dtype=float)]
            )
            return np.stack([c.evaluate(point) for c in _columns], axis=1)

        def factored_batch(X, U, _columns=columns):
            points = np.hstack(
                [np.asarray(X, dtype=float), np.asarray(U, dtype=float)]
            )
            return np.stack([c.evaluate_batch(points) for c in _columns], axis=2)

        n_x = decomposition.n_x
        input_dependent = any(c.arrays.exps[n_x:].any() for c in columns)
    else:

        def term(x, u):
            return dictionary.jacobian(x) @ decomposition.input_driven(x, u)

        factored = _ct_oracle_factored(decomposition, dictionary, quad)
        factored_batch = None
        input_dependent = True

    return LiftedModel(
        A=A,
        input_term=term,
        factored_input=factored,
        time_domain=time_domain,
        residual=float(residual),
        exact=residual <= span_tolerance,
        dictionary=dictionary,
        n_u=decomposition.n_u,
        quad=quad,
        input_dependent=input_dependent,
        factored_batch=factored_batch,
        input_held=decomposition.input_held,
        name=name or decomposition.name,
    )


def _ct_oracle_factored(decomposition, dictionary, quad):
    """B(x, u) of a held-input form.

    Since the input term is (dPhi/dx)(x) g(x, u) and the dictionary Jacobian
    does not depend on u, the ray integral reduces to the dictionary
    Jacobian times the integrated input-Jacobian S of g, finished from a
    one-row ``ray_table``: bit for bit the row the LPV kernel's table holds.
    """
    lam, w = quad.rule()
    held = decomposition.input_held
    shape = (decomposition.n_x, decomposition.n_u)

    def factored(x, u):
        x = np.asarray(x, dtype=float)
        h = held.ray_table(np.asarray(u, dtype=float)[None], lam, w)[0].tolist()
        S = np.reshape(held.jacobian_at(tuple(x.tolist()), h), shape)
        return dictionary.jacobian(x) @ S

    return factored
