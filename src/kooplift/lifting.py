"""Construction of exact lifted models.

Given a decomposition f_d = f + g and a dictionary of observables, this
module builds the lifted dynamics

    continuous time:   d/dt Phi(x) = A Phi(x) + B_in(x, u)
    discrete time:     Phi(x+)     = A Phi(x) + B_in(x, u)

where A comes from the span condition on the autonomous part. The input
term B_in is factorised as B_in(x, u) = B(x, u) u by integrating its
input-Jacobian along the ray from 0 to u, which is what turns the lifted
model into a linear parameter-varying system.

The input part g is one polynomial map over the joint variables (x, u, E),
E_k = expm1(d_k u_{j_k}) being continuous-time input features. One joint
expansion, Phi(f + g) in discrete time and (dPhi/dx)(f + g) in continuous
time, gives A from its input-free terms, the input term from the rest and
the columns of B(x, u) in closed form: a term with input exponents is
lowered in each of them, and an E_k term moves to column j_k with E_k
replaced by F_k = d_k phi1(d_k u_{j_k}), phi1(z) = expm1(z) / z. All three
are computed on coefficients, so they are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

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
from .systems import CONTINUOUS, DISCRETE, Decomposition

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
    matched, and the offending monomials in graded order. A dictionary
    holds each monomial once, so each term goes to the column of its
    monomial: the matching is a direct assignment and therefore exact.
    """
    position = {obs.exponents: k for k, obs in enumerate(dictionary.observables)}
    keys = list(map(tuple, rows.exps.T.tolist()))
    column = np.array([position.get(k, -1) for k in keys], dtype=np.intp)
    hit = column >= 0
    coeffs = np.zeros((rows.n_rows, dictionary.n_f))
    coeffs[rows.row[hit], column[hit]] = rows.coeff[hit]
    residual = float(np.abs(rows.coeff[~hit]).max(initial=0.0))
    return coeffs, residual, graded({k for k, c in zip(keys, column.tolist()) if c < 0})


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
    continuous time, over the joint variables (x, u, E) of ``g``.

    The components f + g are the terms of both, f's padded with zero input
    and feature exponents; no key is in both, since every term of g has an
    input exponent or an E factor. Discrete time composes every observable
    with the components (:func:`compose_rows`). Continuous time forms row r
    as sum_i e_i x^(e - 1_i) (f + g)[i], summed over i in order, as one
    :func:`multiply_rows` call; it is linear in g, so each E factor stays
    to the first power.
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
    exponentials: Sequence[Tuple[int, float]] = (),
) -> Tuple[np.ndarray, float, PolynomialMap, List[PolynomialMap]]:
    """A, its span residual, the input term and the columns of B(x, u) of a
    system f(x) + g(x, u, E), from one joint expansion.

    The lifted rows (:func:`_lifted_rows`) are expanded once over the joint
    variables (x, u, E), E being the features of ``exponentials``. Their
    input-free terms are the rows of Phi o f (or of (dPhi/dx) f) bit for
    bit: no product with an input exponent or an E factor has an input-free
    key, and the input-free products of a key are summed in the order the
    separate expansion sums them. So they give A by span matching. Their
    other terms are the input term, with B_in(x, 0) = 0 holding
    identically. The ray integral of the factorisation has a closed form on
    each term:

    - c x^a u^b contributes c * (b_j / |b|) * x^a u^(b - e_j) to column j;
    - c x^a E_k, E_k = expm1(d u_j), contributes c x^a F_k to column j,
      F_k = expm1(d u_j) / u_j = d phi1(d u_j) taking the variable of E_k.

    The input term is a map over (x, u, E), the columns over (x, u, F).

    Dropping terms keeps the graded order of the lifted rows, and so does
    lowering u_j in every term of a column; each lowered exponent comes from
    one term alone. So a column without E terms is already canonical and is
    built from the arrays as they are; one with E terms is sorted once.
    """
    n_x, n_e = dictionary.n_x, len(exponentials)
    n_u = g.n_vars - n_x - n_e
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
    beta = inputs.exps[n_x : n_x + n_u]
    # an E term has no input exponent: it goes whole to the column of its input
    deg_u = np.maximum(beta.sum(axis=0), 1)
    target = np.full(inputs.coeff.shape[0], -1)
    for k, (j, _) in enumerate(exponentials):
        target[inputs.exps[n_x + n_u + k] > 0] = j
    columns = []
    for j in range(n_u):
        fed = target == j
        value = np.where(fed, inputs.coeff, inputs.coeff * (beta[j] / deg_u))
        keep = ((beta[j] > 0) | fed) & (value != 0.0)
        exps = np.compress(keep, inputs.exps, axis=1)
        exps[n_x + j] -= (beta[j, keep] > 0).astype(exps.dtype)
        column = TermArrays(inputs.row[keep], exps, value[keep], inputs.n_rows)
        if fed.any():
            column = column.canonical()
        columns.append(PolynomialMap._from_arrays(g.n_vars, column))
    return A, residual, PolynomialMap._from_arrays(g.n_vars, inputs), columns


# ---------------------------------------------------------------------------
# lifted model assembly
# ---------------------------------------------------------------------------


STACK_ZU = "stack-zu"
STACK_Z = "stack-z"


@dataclass
class LiftedModel:
    """Exact (or residual-flagged approximate) lifted dynamics of
    ``decomposition``, which also gives the model its ``time_domain`` and
    ``n_u``.

    The model is linear parameter-varying as it stands:

        z+ (or dz/dt) = A z + B(x, u) u,        x = C z,

    scheduled on [z; u] (``scheduling`` "stack-zu"), or on z alone
    ("stack-z") when B is state-only. :meth:`input_term` evaluates the
    lifted forcing and :meth:`factored_input` the matrix B with
    ``B(x, u) u = input_term(x, u)``. The lift holds both as maps over the
    joint variables, in either time domain: ``input_map`` over (x, u, E),
    evaluated at ``[x; u; E]``, and ``input_columns``, one map per column of
    B over (x, u, F), evaluated at ``[x; u; F]`` (see
    :meth:`~kooplift.systems.Decomposition.features`).

    Every simulation, fit and bound takes B through ``factored_input``,
    looked up on the model when it is used, so a function assigned to that
    name on an instance takes its place. The state is recovered through the
    dictionary's identity observables; ``C`` is built on first use.
    """

    A: np.ndarray
    residual: float
    exact: bool
    dictionary: ObservableDictionary
    decomposition: Decomposition
    input_map: PolynomialMap
    input_columns: List[PolynomialMap]
    name: str = "lifted-model"

    @property
    def n_f(self) -> int:
        return self.A.shape[0]

    @property
    def n_x(self) -> int:
        return self.dictionary.n_x

    @property
    def n_u(self) -> int:
        return self.decomposition.n_u

    @property
    def time_domain(self) -> str:
        return self.decomposition.time_domain

    @cached_property
    def input_dependent(self) -> bool:
        """Whether B depends on u: whether a column of B has an input
        exponent or an F factor."""
        return any(c.arrays.exps[self.n_x :].any() for c in self.input_columns)

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

    def input_term(self, x, u) -> np.ndarray:
        """The lifted forcing B_in(x, u), of length n_f."""
        return self.input_map.evaluate(self.decomposition.joint(x, u))

    def factored_input(self, x, u) -> np.ndarray:
        """B(x, u), of shape (n_f, n_u)."""
        point = self.decomposition.joint(x, u, 1)
        return np.stack([c.evaluate(point) for c in self.input_columns], axis=1)

    def factored_batch(self, X, U) -> np.ndarray:
        """B(x_i, u_i) of the point rows of ``X`` and ``U``, of shape
        (M, n_f, n_u)."""
        points = self.decomposition.joint_batch(X, U, 1)
        return np.stack([c.evaluate_batch(points) for c in self.input_columns], axis=2)

    def to_document(self) -> dict:
        return {
            "kind": "lifted-model",
            "name": self.name,
            "time_domain": self.time_domain,
            "n_f": self.n_f,
            "n_u": self.n_u,
            "A": self.A,
            "residual": float(self.residual),
            "exact": bool(self.exact),
            "dictionary": self.dictionary.describe(),
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
            "A": self.A,
            "C": self.C,
            "dictionary": self.dictionary.describe(),
        }


def build_lifted_model(
    decomposition: Decomposition,
    dictionary: ObservableDictionary,
    span_tolerance: float = DEFAULT_SPAN_TOLERANCE,
    strict: bool = True,
    name: Optional[str] = None,
) -> LiftedModel:
    """Assemble the lifted model for a decomposed system.

    A, the input term and B(x, u) come from one symbolic expansion, and the
    model is exact when the span residual is at (floating point) zero; with
    ``strict`` a span violation raises instead of marking the model
    approximate.
    """
    A, residual, input_map, columns = _symbolic_lift(
        decomposition.autonomous,
        decomposition.input_polynomial,
        dictionary,
        decomposition.time_domain,
        span_tolerance,
        strict,
        decomposition.exponentials,
    )
    return LiftedModel(
        A=A,
        residual=float(residual),
        exact=residual <= span_tolerance,
        dictionary=dictionary,
        decomposition=decomposition,
        input_map=input_map,
        input_columns=columns,
        name=name or decomposition.name,
    )
