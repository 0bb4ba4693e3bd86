"""Construction of exact lifted models.

Given a decomposition f_d = f + g and a dictionary of observables, this
module builds the lifted dynamics

    continuous time:   d/dt Phi(x) = A Phi(x) + B_in(x, u)
    discrete time:     Phi(x+)     = A Phi(x) + B_in(x, u)

where A comes from the span condition on the autonomous part and the input
term B_in is a Jacobian-vector product in continuous time and a unit-interval
line integral of the dictionary Jacobian in discrete time. The input term is
then factorised as B_in(x, u) = B(x, u) u by integrating its input-Jacobian
along the ray from 0 to u, which is what turns the lifted model into a
linear parameter-varying system.

Polynomial systems with monomial dictionaries take a fully symbolic path:
A and the factorised input matrix are computed on coefficients, so they are
exact. Everything else is evaluated through Gauss-Legendre quadrature and,
where no analytic input-Jacobian exists, central finite differences.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dictionaries import ObservableDictionary
from .errors import (
    DimensionError,
    DomainWarning,
    InvariantSubspaceViolation,
    SpanViolation,
)
from .lpv import output_matrix
from .polynomials import (
    PolynomialMap,
    TermDict,
    _add_term,
    _sorted_terms,
    _term_order_key,
    compose_monomial,
    fresh_power_caches,
    poly_add,
    poly_mul,
)
from .quadrature import QuadratureSpec, central_difference
from .systems import CONTINUOUS, DISCRETE, Decomposition, DomainBox, HeldInput

log = logging.getLogger(__name__)

DEFAULT_SPAN_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# coefficient matching against the dictionary span
# ---------------------------------------------------------------------------


def match_rows_to_span(
    rows: Sequence[TermDict], dictionary: ObservableDictionary
) -> Tuple[np.ndarray, float, List[tuple]]:
    """Express polynomial rows as linear combinations of the observables.

    Returns the coefficient matrix (one row per input polynomial, one column
    per observable), the largest absolute coefficient that could not be
    matched, and the offending monomials. With distinct monomial observables
    the matching is a direct assignment and therefore exact; dictionaries
    with repeated monomials fall back to a least-squares solve and the
    linear dependence is reported.
    """
    if not dictionary.all_monomial:
        raise TypeError("span matching requires an all-monomial dictionary")
    positions: Dict[tuple, List[int]] = {}
    for k, obs in enumerate(dictionary.observables):
        positions.setdefault(obs.exponents, []).append(k)
    n_f = dictionary.n_f
    coeffs = np.zeros((len(rows), n_f))
    if all(len(v) == 1 for v in positions.values()):
        residual = 0.0
        missing = set()
        for r, row in enumerate(rows):
            for exps, c in row.items():
                hit = positions.get(exps)
                if hit is not None:
                    coeffs[r, hit[0]] = c
                else:
                    missing.add(exps)
                    residual = max(residual, abs(c))
        return coeffs, residual, sorted(missing, key=_term_order_key)

    log.warning(
        "dictionary contains repeated monomials; span matching uses a "
        "minimum-norm least-squares solve"
    )
    union = sorted(
        {exps for row in rows for exps in row} | set(positions),
        key=_term_order_key,
    )
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


def _lifted_derivative_rows(
    f_c: PolynomialMap, dictionary: ObservableDictionary
) -> List[TermDict]:
    """Rows of (dPhi/dx) f_c, expanded symbolically."""
    rows = []
    for obs in dictionary.observables:
        acc: TermDict = {}
        for i, e in enumerate(obs.exponents):
            if not e:
                continue
            lowered = obs.exponents[:i] + (e - 1,) + obs.exponents[i + 1 :]
            acc = poly_add(acc, poly_mul({lowered: float(e)}, f_c.rows[i]))
        rows.append(acc)
    return rows


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
    if f_c.n_vars != dictionary.n_x or f_c.n_out != dictionary.n_x:
        raise DimensionError("autonomous dynamics and dictionary dimensions differ")
    rows = _lifted_derivative_rows(f_c, dictionary)
    A, residual, missing = match_rows_to_span(rows, dictionary)
    if strict and residual > span_tolerance:
        raise InvariantSubspaceViolation(
            f"lifted derivative leaves the dictionary span (residual {residual:.3e}; "
            f"missing monomials {missing})",
            residual=residual,
            missing=missing,
        )
    return A, residual


def _composed_rows(
    f: PolynomialMap, dictionary: ObservableDictionary
) -> List[TermDict]:
    caches = fresh_power_caches(f.rows, f.n_vars)
    return [
        compose_monomial(obs.exponents, f.rows, f.n_vars, caches)
        for obs in dictionary.observables
    ]


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
    if f.n_vars != dictionary.n_x or f.n_out != dictionary.n_x:
        raise DimensionError("autonomous dynamics and dictionary dimensions differ")
    rows = _composed_rows(f, dictionary)
    A, residual, missing = match_rows_to_span(rows, dictionary)
    if strict and residual > span_tolerance:
        raise InvariantSubspaceViolation(
            f"composed dictionary leaves its own span (residual {residual:.3e}; "
            f"missing monomials {missing})",
            residual=residual,
            missing=missing,
        )
    return A, residual


def fit_A_from_samples(
    autonomous: Callable[[np.ndarray], np.ndarray],
    dictionary: ObservableDictionary,
    samples: np.ndarray,
    time_domain: str,
) -> Tuple[np.ndarray, float]:
    """Least-squares A for black-box autonomous dynamics on a sample grid.

    The resulting model is approximate by construction; the returned
    residual is the worst absolute equation error over the samples.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim != 2 or X.shape[1] != dictionary.n_x:
        raise DimensionError(
            f"expected samples of shape (N, {dictionary.n_x}), got {X.shape}"
        )
    Z = dictionary.evaluate_batch(X)
    if time_domain == DISCRETE:
        target = dictionary.evaluate_batch(
            np.stack([np.asarray(autonomous(x), dtype=float) for x in X])
        )
    else:
        target = np.stack(
            [dictionary.jacobian(x) @ np.asarray(autonomous(x), dtype=float) for x in X]
        )
    At, _, rank, _ = np.linalg.lstsq(Z, target, rcond=None)
    if rank < dictionary.n_f:
        log.warning(
            "sample-based lifting is rank deficient (rank %d < %d); "
            "consider more samples or a smaller dictionary",
            rank,
            dictionary.n_f,
        )
    residual = float(np.max(np.abs(Z @ At - target))) if X.size else 0.0
    return At.T, residual


# ---------------------------------------------------------------------------
# input terms and their factorisation
# ---------------------------------------------------------------------------


def input_term_ct(
    decomposition: Decomposition,
    dictionary: ObservableDictionary,
    x: Sequence[float],
    u: Sequence[float],
) -> np.ndarray:
    """Continuous-time lifted input term: (dPhi/dx)(x) g(x, u)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    return dictionary.jacobian(x) @ decomposition.eval_input_driven(x, u)


def input_term_dt(
    decomposition: Decomposition,
    dictionary: ObservableDictionary,
    x: Sequence[float],
    u: Sequence[float],
    quad: QuadratureSpec = QuadratureSpec(),
    state_box: Optional[DomainBox] = None,
) -> np.ndarray:
    """Discrete-time lifted input term.

    Integrates the dictionary Jacobian along the segment from f(x) to
    f(x) + g(x, u) and multiplies by g(x, u); exact whenever the integrand
    is polynomial of degree <= 2 * nodes - 1. If the segment leaves the
    declared state box a warning is emitted but the computation proceeds.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    g = decomposition.eval_input_driven(x, u)
    fx = decomposition.eval_autonomous(x)
    lam, w = quad.rule()
    box = state_box
    if box is not None:
        ends = np.stack([fx, fx + g])
        if not (box.contains(ends[0]) and box.contains(ends[1])):
            warnings.warn(
                "integration segment leaves the declared state box; the lifted "
                "input term is still evaluated",
                DomainWarning,
                stacklevel=2,
            )
    acc = w[0] * dictionary.jacobian(fx + lam[0] * g)
    for q in range(1, lam.shape[0]):
        acc += w[q] * dictionary.jacobian(fx + lam[q] * g)
    return acc @ g


def factorize_input(
    input_term: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x: Sequence[float],
    u: Sequence[float],
    quad: QuadratureSpec = QuadratureSpec(),
    input_term_jacobian: Optional[Callable] = None,
) -> np.ndarray:
    """Factor the lifted input term: B(x, u) with B_in(x, u) = B(x, u) u.

    Integrates the input-Jacobian of the input term along the ray from 0 to
    u. The Jacobian is taken analytically when supplied and by central
    finite differences otherwise. At u = 0 every quadrature node collapses
    to the origin, so the Jacobian at (x, 0) is returned directly.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if input_term_jacobian is None:
        input_term_jacobian = _fd_input_term_jacobian(input_term)
    if not u.any():
        return np.asarray(input_term_jacobian(x, u), dtype=float)
    lam, w = quad.rule()
    acc = w[0] * np.asarray(input_term_jacobian(x, lam[0] * u), dtype=float)
    for q in range(1, lam.shape[0]):
        acc += w[q] * np.asarray(input_term_jacobian(x, lam[q] * u), dtype=float)
    return acc


def _fd_input_term_jacobian(input_term):
    def jac(x, v):
        return central_difference(lambda w: input_term(x, w), v)

    return jac


# ---------------------------------------------------------------------------
# bilinear extraction (continuous-time control-affine systems)
# ---------------------------------------------------------------------------


@dataclass
class BilinearModel:
    """Bilinear lifted form: d/dt Phi = A Phi + sum_i B_i Phi u_i."""

    B: List[np.ndarray]
    A: Optional[np.ndarray] = None

    @property
    def n_u(self) -> int:
        return len(self.B)

    @property
    def n_f(self) -> int:
        return self.B[0].shape[0] if self.B else 0

    def b_tilde(self, j: int) -> np.ndarray:
        """Column-gathered form: stacks the j-th column of every B_i."""
        return np.stack([Bi[:, j] for Bi in self.B], axis=1)

    def input_term(self, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        u = np.asarray(u, dtype=float)
        acc = np.zeros(self.n_f)
        for i, Bi in enumerate(self.B):
            acc += (Bi @ z) * u[i]
        return acc


def extract_bilinear(
    g_columns: Sequence[PolynomialMap],
    dictionary: ObservableDictionary,
    span_tolerance: float = DEFAULT_SPAN_TOLERANCE,
    A: Optional[np.ndarray] = None,
) -> BilinearModel:
    """Bilinear form of a control-affine continuous-time system.

    Requires every channel expansion (dPhi/dx) g_i to lie in the dictionary
    span; otherwise a :class:`SpanViolation` lists the missing monomials per
    channel.
    """
    matrices = []
    for i, column in enumerate(g_columns):
        rows = _lifted_derivative_rows(column, dictionary)
        Bi, residual, missing = match_rows_to_span(rows, dictionary)
        if residual > span_tolerance:
            raise SpanViolation(
                f"input channel {i} expansion leaves the dictionary span "
                f"(residual {residual:.3e}; missing monomials {missing})",
                residual=residual,
                missing=missing,
            )
        matrices.append(Bi)
    return BilinearModel(B=matrices, A=A)


# ---------------------------------------------------------------------------
# symbolic input machinery for polynomial systems
# ---------------------------------------------------------------------------


def _joint_successor_components(
    f: PolynomialMap, g_columns: Sequence[PolynomialMap]
) -> List[TermDict]:
    """Rows of f(x) + G(x) u over the joint variable set (x, u)."""
    n_x = f.n_vars
    n_u = len(g_columns)
    total = n_x + n_u
    components = [dict(row) for row in f.pad_vars(total).rows]
    for j, column in enumerate(g_columns):
        for i, row in enumerate(column.rows):
            for exps, c in row.items():
                joint = exps + tuple(1 if k == j else 0 for k in range(n_u))
                _add_term(components[i], joint, c)
    return [_sorted_terms(c) for c in components]


def _symbolic_dt_input(
    decomposition: Decomposition, dictionary: ObservableDictionary
) -> Tuple[PolynomialMap, List[PolynomialMap], bool]:
    """Exact input term and factorised input matrix for polynomial DT systems.

    The composed successor Phi(f(x) + G(x) u) is expanded over the joint
    variables (x, u); dropping the input-free terms yields the lifted input
    term with B_in(x, 0) = 0 holding identically. The ray integral of the
    factorisation has a closed form on monomials: a term c x^a u^b of the
    input term contributes c * b_j / |b| * x^a u^(b - e_j) to column j.
    """
    f = decomposition.autonomous
    g_columns = decomposition.control_affine_columns
    n_x, n_u = decomposition.n_x, decomposition.n_u
    total = n_x + n_u
    components = _joint_successor_components(f, g_columns)
    caches = fresh_power_caches(components, total)
    input_rows: List[TermDict] = []
    for obs in dictionary.observables:
        composed = compose_monomial(obs.exponents, components, total, caches)
        input_rows.append(
            {exps: c for exps, c in composed.items() if any(exps[n_x:])}
        )
    column_rows: List[List[TermDict]] = [[{} for _ in input_rows] for _ in range(n_u)]
    input_dependent = False
    for r, row in enumerate(input_rows):
        for exps, c in row.items():
            beta = exps[n_x:]
            deg_u = sum(beta)
            if deg_u > 1:
                input_dependent = True
            for j, bj in enumerate(beta):
                if not bj:
                    continue
                lowered = exps[: n_x + j] + (bj - 1,) + exps[n_x + j + 1 :]
                _add_term(column_rows[j][r], lowered, c * (bj / deg_u))
    input_term = PolynomialMap(total, input_rows)
    columns = [PolynomialMap(total, rows) for rows in column_rows]
    return input_term, columns, input_dependent


def _symbolic_ct_columns(
    decomposition: Decomposition, dictionary: ObservableDictionary
) -> List[PolynomialMap]:
    """Exact state-dependent input-matrix columns for CT control-affine systems."""
    return [
        PolynomialMap(
            decomposition.n_x, _lifted_derivative_rows(column, dictionary)
        )
        for column in decomposition.control_affine_columns
    ]


# ---------------------------------------------------------------------------
# lifted model assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InputForm:
    """The held-input form of a continuous-time oracle's B(x, u), for the
    simulation kernels: ``held`` (see :class:`~kooplift.systems.HeldInput`)
    with the ``nodes`` and ``weights`` of the factorisation's ray quadrature
    (B = dPhi/dx(x) S(x, u)).
    """

    held: HeldInput
    nodes: np.ndarray
    weights: np.ndarray


STACK_ZU = "stack-zu"
STACK_Z = "stack-z"


@dataclass
class LiftedModel:
    """Exact (or residual-flagged approximate) lifted dynamics.

    ``input_term(x, u)`` evaluates the lifted forcing; ``factored_input``
    returns the matrix B with ``B(x, u) u = input_term(x, u)``. When the
    factored matrix does not depend on the input (continuous-time
    control-affine systems), ``input_dependent`` is False and the scheduling
    drops u. ``input_form`` describes B(x, u) for the continuous-time
    simulation kernels when the oracle has a held-input form.

    The model is linear parameter-varying as it stands:

        z+ (or dz/dt) = A z + B_z(p) u,        p = mu(z, u),

    with the full-stacking scheduling map p = [z; u], or p = z when B is
    state-only. The state is recovered as x = C z through the dictionary's
    identity observables; ``C`` is built on first use.
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
    input_form: Optional[InputForm] = None
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

    @property
    def p_dim(self) -> int:
        return self.n_f + (self.n_u if self.scheduling == STACK_ZU else 0)

    def scheduling_map(self, z, u) -> np.ndarray:
        """mu(z, u): full stacking [z; u], or z alone for state-only input maps."""
        z = np.asarray(z, dtype=float)
        if self.scheduling == STACK_Z:
            return z.copy()
        return np.concatenate([z, np.asarray(u, dtype=float)])

    def input_matrix(self, p) -> np.ndarray:
        """B_z(p): evaluates the factorised input matrix from the scheduling
        variable, recovering the state through the dictionary's identity
        observables."""
        p = np.asarray(p, dtype=float)
        if p.shape != (self.p_dim,):
            raise DimensionError(
                f"expected scheduling vector of shape ({self.p_dim},), got {p.shape}"
            )
        z = p[: self.n_f]
        u = p[self.n_f :] if self.scheduling == STACK_ZU else np.zeros(self.n_u)
        x = z[list(self.dictionary.state_selector)]
        return np.asarray(self.factored_input(x, u), dtype=float)

    def output(self, z) -> np.ndarray:
        """x = C z; a plain gather of the identity observables."""
        return np.asarray(z, dtype=float)[..., list(self.dictionary.state_selector)]

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


def load_lifted_document(doc: dict) -> dict:
    """Rebuild the numeric content of a serialised lifted model."""
    if doc.get("kind") != "lifted-model":
        raise ValueError("document is not a lifted model")
    out = dict(doc)
    out["A"] = np.array(doc["A"], dtype=float)
    out["dictionary"] = ObservableDictionary.from_description(doc["dictionary"])
    return out


def build_lifted_model(
    decomposition: Decomposition,
    dictionary: ObservableDictionary,
    quad: QuadratureSpec = QuadratureSpec(),
    span_tolerance: float = DEFAULT_SPAN_TOLERANCE,
    strict: bool = True,
    sample_grid: Optional[np.ndarray] = None,
    name: Optional[str] = None,
) -> LiftedModel:
    """Assemble the lifted model for a decomposed system.

    Polynomial autonomous dynamics with all-monomial dictionaries use the
    symbolic path and are exact when the span residual is at (floating
    point) zero; black-box dynamics require ``sample_grid`` and produce a
    model marked approximate. With ``strict`` the symbolic path raises on a
    span violation instead of marking the model approximate.
    """
    time_domain = decomposition.time_domain
    symbolic_A = decomposition.autonomous_is_polynomial and dictionary.all_monomial
    if symbolic_A:
        compute = compute_A_ct if time_domain == CONTINUOUS else compute_A_dt
        A, residual = compute(
            decomposition.autonomous,
            dictionary,
            span_tolerance=span_tolerance,
            strict=strict,
        )
        exact = residual <= span_tolerance
    else:
        if sample_grid is None:
            raise TypeError(
                "black-box autonomous dynamics need a sample_grid to fit A"
            )
        autonomous = (
            decomposition.autonomous.evaluate
            if decomposition.autonomous_is_polynomial
            else decomposition.autonomous
        )
        A, residual = fit_A_from_samples(
            autonomous, dictionary, sample_grid, time_domain
        )
        exact = False

    symbolic_input = (
        decomposition.control_affine_columns is not None and dictionary.all_monomial
    )
    input_form = None
    if time_domain == CONTINUOUS:
        if symbolic_input:
            columns = _symbolic_ct_columns(decomposition, dictionary)

            def factored(x, u, _columns=columns):
                x = np.asarray(x, dtype=float)
                return np.stack([c.evaluate(x) for c in _columns], axis=1)

            def term(x, u, _columns=columns):
                return factored(x, u) @ np.asarray(u, dtype=float)

            def factored_batch(X, U, _columns=columns):
                return np.stack(
                    [c.evaluate_batch(np.asarray(X, dtype=float)) for c in _columns],
                    axis=2,
                )

            input_dependent = False
        else:
            term = partial(input_term_ct, decomposition, dictionary)
            factored = _ct_oracle_factored(decomposition, dictionary, quad)
            factored_batch = None
            input_dependent = True
            if decomposition.input_held is not None:
                nodes, weights = quad.rule()
                input_form = InputForm(
                    held=decomposition.input_held, nodes=nodes, weights=weights
                )
    else:
        if symbolic_input:
            symbolic_term, columns_joint, input_dependent = _symbolic_dt_input(
                decomposition, dictionary
            )

            def term(x, u, _poly=symbolic_term):
                point = np.concatenate(
                    [np.asarray(x, dtype=float), np.asarray(u, dtype=float)]
                )
                return _poly.evaluate(point)

            def factored(x, u, _columns=columns_joint):
                point = np.concatenate(
                    [np.asarray(x, dtype=float), np.asarray(u, dtype=float)]
                )
                return np.stack([c.evaluate(point) for c in _columns], axis=1)

            def factored_batch(X, U, _columns=columns_joint):
                points = np.hstack(
                    [np.asarray(X, dtype=float), np.asarray(U, dtype=float)]
                )
                return np.stack(
                    [c.evaluate_batch(points) for c in _columns], axis=2
                )

        else:
            term = partial(input_term_dt, decomposition, dictionary, quad=quad)
            factored = _dt_oracle_factored(decomposition, dictionary, quad, term)
            factored_batch = None
            input_dependent = True

    return LiftedModel(
        A=A,
        input_term=term,
        factored_input=factored,
        time_domain=time_domain,
        residual=float(residual),
        exact=exact,
        dictionary=dictionary,
        n_u=decomposition.n_u,
        quad=quad,
        input_dependent=input_dependent,
        factored_batch=factored_batch,
        input_form=input_form,
        name=name or decomposition.name,
    )


def _ct_oracle_factored(decomposition, dictionary, quad):
    """B(x, u) for general CT systems.

    Since the input term is (dPhi/dx)(x) g(x, u) and the dictionary Jacobian
    does not depend on u, the ray integral reduces to the dictionary
    Jacobian times the integrated input-Jacobian S of g. An oracle with a
    held-input form supplies S in one call, bit for bit what the simulation
    kernels use; otherwise the input-Jacobian is summed node by node.
    """
    lam, w = quad.rule()
    held = decomposition.input_held
    shape = (decomposition.n_x, decomposition.n_u)

    def factored(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        J = dictionary.jacobian(x)
        if not u.any():
            return J @ decomposition.input_jacobian_at(x, u)
        if held is not None:
            h = held.jacobian(tuple(u.tolist()), lam, w)
            S = np.reshape(held.jacobian_at(tuple(x.tolist()), h), shape)
        else:
            S = w[0] * decomposition.input_jacobian_at(x, lam[0] * u)
            for q in range(1, lam.shape[0]):
                S += w[q] * decomposition.input_jacobian_at(x, lam[q] * u)
        return J @ S

    return factored


def _dt_input_term_jacobian(decomposition, dictionary, quad):
    """Analytic input-Jacobian of the DT lifted input term.

    Differentiating under the integral gives two contributions: the
    integrated dictionary Jacobian times dg/du, and a chain term from the
    dependence of the integration segment on u, which involves the second
    derivatives of the observables and is evaluated by a nested quadrature.
    Used when the decomposition provides an analytic input-Jacobian and the
    dictionary is monomial; otherwise the factorisation falls back to finite
    differences on the input term itself.
    """
    lam, w = quad.rule()
    hessian = dictionary.jacobian_map.jacobian()
    n_f, n_x = dictionary.n_f, dictionary.n_x

    def jac(x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        g = decomposition.eval_input_driven(x, v)
        Jg = decomposition.input_jacobian_at(x, v)
        fx = decomposition.eval_autonomous(x)
        points = fx[None, :] + lam[:, None] * g[None, :]
        Jphi = np.stack([dictionary.jacobian(p) for p in points])
        S = np.tensordot(w, Jphi, axes=1)
        H = hessian.evaluate_batch(points).reshape(lam.shape[0], n_f, n_x, n_x)
        T = np.einsum("q,qabc,cj->abj", w * lam, H, Jg)
        return S @ Jg + np.einsum("abj,b->aj", T, g)

    return jac


def _dt_oracle_factored(decomposition, dictionary, quad, term):
    analytic = (
        decomposition.input_jacobian is not None and dictionary.all_monomial
    )
    if analytic:
        term_jacobian = _dt_input_term_jacobian(decomposition, dictionary, quad)
    else:
        term_jacobian = _fd_input_term_jacobian(term)

    def factored(x, u):
        return factorize_input(
            None, x, u, quad=quad, input_term_jacobian=term_jacobian
        )

    return factored
