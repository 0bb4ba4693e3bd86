"""Steps of lifted models and their constant-matrix (LTI) approximations.

A lifted model (``LiftedModel``) is linear parameter-varying as built: its
step is A z + B(x, u) u with x = C z, the state recovered through the
dictionary's identity observables. This module holds that step, the output
matrix C, and the LTI model A z + B u that the data-driven fits produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dictionaries import ObservableDictionary
from .errors import DimensionError
from .systems import DISCRETE


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
