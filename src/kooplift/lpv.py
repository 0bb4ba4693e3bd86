"""Linear parameter-varying and LTI packaging of lifted models.

The lifted dynamics with factorised input matrix become a linear
parameter-varying model once the state/input dependence of the input matrix
is routed through a scheduling variable p:

    z+ (or dz/dt) = A z + B_z(p) u,        p = mu(z, u)

with the default full-stacking scheduling map p = [z; u] (continuous-time
control-affine systems drop u since their input matrix is state-only). The
original state is recovered as x = C z through the dictionary's identity
observables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dictionaries import ObservableDictionary
from .errors import DimensionError
from .lifting import InputForm, LiftedModel
from .systems import CONTINUOUS, DISCRETE

STACK_ZU = "stack-zu"
STACK_Z = "stack-z"


@dataclass
class LPVKoopmanModel:
    """Lifted model in LPV form with an explicit scheduling map."""

    A: np.ndarray
    C: np.ndarray
    scheduling: str
    time_domain: str
    n_u: int
    dictionary: ObservableDictionary
    factored_input: Callable[[np.ndarray, np.ndarray], np.ndarray]
    factored_batch: Optional[Callable] = None
    input_form: Optional[InputForm] = None
    name: str = "lpv-koopman"

    @property
    def n_f(self) -> int:
        return self.A.shape[0]

    @property
    def n_x(self) -> int:
        return self.C.shape[0]

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

    def input_matrix_from_state(self, x, u) -> np.ndarray:
        return np.asarray(self.factored_input(x, u), dtype=float)

    def output(self, z) -> np.ndarray:
        """x = C z; a plain gather of the identity observables."""
        return np.asarray(z, dtype=float)[..., list(self.dictionary.state_selector)]

    def to_document(self) -> dict:
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


@dataclass
class LTIKoopmanModel:
    """Constant-matrix approximation of a lifted model."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    time_domain: str = DISCRETE
    name: str = "lti-koopman"

    @property
    def n_f(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    def output(self, z) -> np.ndarray:
        return np.asarray(z, dtype=float) @ self.C.T

    def to_document(self) -> dict:
        return {
            "kind": "lti-koopman-model",
            "name": self.name,
            "time_domain": self.time_domain,
            "n_f": self.n_f,
            "n_u": self.n_u,
            "A": [[float(v) for v in row] for row in self.A],
            "B": [[float(v) for v in row] for row in self.B],
            "C": [[float(v) for v in row] for row in self.C],
        }


def output_matrix(dictionary: ObservableDictionary) -> np.ndarray:
    """C with C Phi(x) = x, built from the dictionary's state selector."""
    if dictionary.state_selector is None:
        raise ValueError(
            "dictionary has no state selector; cannot recover the state "
            "from the lifted vector"
        )
    C = np.zeros((dictionary.n_x, dictionary.n_f))
    for i, j in enumerate(dictionary.state_selector):
        C[i, j] = 1.0
    return C


def make_lpv(
    lifted: LiftedModel, dictionary: Optional[ObservableDictionary] = None
) -> LPVKoopmanModel:
    """Package a lifted model as an LPV model.

    The scheduling map defaults to full stacking p = [z; u]; when the
    factorised input matrix is state-only (continuous-time control-affine
    case) the input is dropped and p = z.
    """
    dictionary = dictionary if dictionary is not None else lifted.dictionary
    C = output_matrix(dictionary)
    scheduling = (
        STACK_Z
        if (lifted.time_domain == CONTINUOUS and not lifted.input_dependent)
        else STACK_ZU
    )
    return LPVKoopmanModel(
        A=lifted.A,
        C=C,
        scheduling=scheduling,
        time_domain=lifted.time_domain,
        n_u=lifted.n_u,
        dictionary=dictionary,
        factored_input=lifted.factored_input,
        factored_batch=lifted.factored_batch,
        input_form=lifted.input_form,
        name=lifted.name,
    )


def lifted_step(A: np.ndarray, input_matrix: Callable, selector) -> Callable:
    """The lifted model's step ``(z, u) -> A z + B(x, u) u`` with ``x = z[selector]``.

    ``input_matrix(x, u)`` returns B(x, u). The step is the vector field in
    continuous time and the successor map in discrete time.
    """

    def step(z, u):
        return A @ z + input_matrix(z[selector], u) @ u

    return step


def lti_step(A: np.ndarray, B: np.ndarray) -> Callable:
    """The constant-matrix step ``(z, u) -> A z + B u``."""
    return lambda z, u: A @ z + B @ u


def eval_lpv_step(model: LPVKoopmanModel, z, u) -> np.ndarray:
    """One evaluation of the LPV model: A z + B(x, u) u with x = C z.

    Returns the lifted vector field in continuous time and the successor
    state in discrete time.
    """
    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    if z.shape != (model.n_f,) or u.shape != (model.n_u,):
        raise DimensionError(
            f"expected z of shape ({model.n_f},) and u of shape ({model.n_u},), "
            f"got {z.shape} and {u.shape}"
        )
    selector = list(model.dictionary.state_selector)
    return lifted_step(model.A, model.input_matrix_from_state, selector)(z, u)


def make_lti(A, B, C, time_domain: str = DISCRETE, name: str = "lti-koopman") -> LTIKoopmanModel:
    """Package constant lifted matrices as an LTI model."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"A must be square, got shape {A.shape}")
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise DimensionError(
            f"B must have {A.shape[0]} rows to match A, got shape {B.shape}"
        )
    if C.ndim != 2 or C.shape[1] != A.shape[0]:
        raise DimensionError(
            f"C must have {A.shape[0]} columns to match A, got shape {C.shape}"
        )
    return LTIKoopmanModel(A=A, B=B, C=C, time_domain=time_domain, name=name)
