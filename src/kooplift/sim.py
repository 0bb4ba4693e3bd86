"""Deterministic simulation, excitation signals and error metrics.

Continuous-time models are integrated with classical fixed-step RK4; input
signals are generated on the integration grid t_k = k * Ts and zero-order
held across each macro step (the sub-stages reuse the held value). Discrete
time is plain iteration. All randomness flows through explicitly seeded
generators so identical configurations reproduce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionError, DivergenceError
from .kernels import lpv_kernel, nonlinear_kernel
from .lifting import LiftedModel
from .lpv import LTIKoopmanModel, lifted_step, lti_step
from .systems import CONTINUOUS, Decomposition

DEFAULT_DIVERGENCE_LIMIT = 1e12


@dataclass
class Trajectory:
    """Time-indexed state (and input) record of one simulation."""

    times: np.ndarray
    states: np.ndarray
    inputs: Optional[np.ndarray] = None
    label: str = "trajectory"

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1:
            raise DimensionError("times must be one-dimensional")
        if np.any(np.diff(self.times) <= 0):
            raise DimensionError("times must be strictly increasing")
        if self.states.ndim != 2 or self.states.shape[0] != self.times.shape[0]:
            raise DimensionError(
                f"states of shape {self.states.shape} do not match "
                f"{self.times.shape[0]} time points"
            )
        if self.inputs is not None:
            self.inputs = np.asarray(self.inputs, dtype=float)
            if self.inputs.ndim != 2 or self.inputs.shape[0] != self.times.shape[0]:
                raise DimensionError(
                    f"inputs of shape {self.inputs.shape} do not match "
                    f"{self.times.shape[0]} time points"
                )

    def with_states(self, states: np.ndarray, label: str) -> "Trajectory":
        return Trajectory(self.times, states, inputs=self.inputs, label=label)


# the fields each signal kind reads, besides its kind
SIGNAL_FIELDS = {
    "zero": (),
    "white_noise": ("variance", "seed"),
    "multisine": ("n_freq", "f_low", "f_high", "amplitude"),
    "custom": ("samples",),
}


@dataclass
class SignalSpec:
    """Excitation signal description.

    kinds: ``zero``; ``white_noise`` (seeded Gaussian, ``variance`` is the
    distribution variance); ``multisine`` (sum of ``n_freq`` unit-phase
    sinusoids placed equidistantly on [f_low, f_high], each scaled by
    ``amplitude``); ``custom`` (explicit samples).
    """

    kind: str
    variance: Optional[float] = None
    seed: object = None
    n_freq: Optional[int] = None
    f_low: Optional[float] = None
    f_high: Optional[float] = None
    amplitude: float = 1.0
    samples: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind == "white_noise":
            if self.variance is None or self.variance < 0:
                raise ValueError("white noise needs a non-negative variance")
            if self.seed is None:
                raise ValueError("white noise needs an explicit seed")
        elif self.kind == "multisine":
            if not self.n_freq or self.n_freq < 1:
                raise ValueError("multisine needs n_freq >= 1")
            if self.f_low is None or self.f_high is None:
                raise ValueError("multisine needs f_low and f_high")
            if self.n_freq > 1 and not self.f_low < self.f_high:
                raise ValueError("multisine needs f_low < f_high")
        elif self.kind == "custom":
            if self.samples is None:
                raise ValueError("custom signal needs samples")
            self.samples = np.asarray(self.samples, dtype=float)
        elif self.kind != "zero":
            raise ValueError(f"unknown signal kind {self.kind!r}")

    def to_document(self) -> dict:
        doc = {"kind": self.kind}
        if self.kind == "white_noise":
            doc.update(variance=self.variance, seed=self.seed)
        elif self.kind == "multisine":
            doc.update(
                n_freq=self.n_freq,
                f_low=self.f_low,
                f_high=self.f_high,
                amplitude=self.amplitude,
            )
        elif self.kind == "custom":
            doc.update(n_samples=int(self.samples.shape[0]))
        return doc


@dataclass
class ErrorReport:
    """Per-state-component l2 and l-infinity norms of a trajectory error."""

    l2: np.ndarray
    linf: np.ndarray
    reference_label: str = "reference"
    test_label: str = "test"

    def to_document(self, meta: Optional[dict] = None) -> dict:
        doc = {
            "reference": self.reference_label,
            "test": self.test_label,
            "errors": [
                {"state_index": i, "l2": float(l2), "linf": float(linf)}
                for i, (l2, linf) in enumerate(zip(self.l2, self.linf))
            ],
        }
        if meta:
            doc["meta"] = meta
        return doc


# ---------------------------------------------------------------------------
# integrators
# ---------------------------------------------------------------------------


def _check_state(
    x: np.ndarray, step: int, limit: float, label: str, selector=None
) -> None:
    # NaN fails the comparison too, so one check covers overflow and NaN
    if np.all(np.abs(x) <= limit):
        return
    # with a selector only x[selector] is held to the limit; the other
    # coordinates need only stay finite
    if (
        selector is None
        or not np.all(np.isfinite(x))
        or not np.all(np.abs(x[selector]) <= limit)
    ):
        raise DivergenceError(
            f"simulation {label!r} diverged at step {step} "
            f"(|state| exceeded {limit:g} or became non-finite)",
            step=step,
        )


def _rk4(rhs, x0, ts, stages, n_steps, divergence_limit, label, selector=None):
    """Classical fourth-order Runge-Kutta with fixed step ``ts``.

    ``stages`` yields, per step, the second arguments ``rhs(x, v)`` takes
    at the step's start, midpoint and end. Returns the (n_steps + 1, n)
    state record.
    """
    if ts <= 0:
        raise ValueError(f"step size must be positive, got {ts}")
    x = np.asarray(x0, dtype=float).copy()
    states = np.empty((n_steps + 1, x.shape[0]))
    states[0] = x
    half = 0.5 * ts
    sixth = ts / 6.0
    for k, (start, mid, end) in enumerate(stages):
        k1 = rhs(x, start)
        k2 = rhs(x + half * k1, mid)
        k3 = rhs(x + half * k2, mid)
        k4 = rhs(x + ts * k3, end)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        _check_state(x, k + 1, divergence_limit, label, selector)
        states[k + 1] = x
    return states


def rk4_integrate(
    field: Callable[[float, np.ndarray], np.ndarray],
    x0: Sequence[float],
    ts: float,
    n_steps: int,
    t0: float = 0.0,
    divergence_limit: float = DEFAULT_DIVERGENCE_LIMIT,
    label: str = "rk4",
) -> Trajectory:
    """Classical fourth-order Runge-Kutta for a time-dependent field(t, x)."""
    half = 0.5 * ts
    starts = (t0 + k * ts for k in range(n_steps))
    states = _rk4(
        lambda x, t: field(t, x),
        x0,
        ts,
        ((t, t + half, t + ts) for t in starts),
        n_steps,
        divergence_limit,
        label,
    )
    times = t0 + np.arange(n_steps + 1) * ts
    return Trajectory(times, states, label=label)


def simulate_ct(
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: Sequence[float],
    inputs: np.ndarray,
    ts: float,
    divergence_limit: float = DEFAULT_DIVERGENCE_LIMIT,
    label: str = "ct",
    state_selector: Optional[Sequence[int]] = None,
) -> Trajectory:
    """RK4 with zero-order-held inputs.

    ``inputs`` has one row per grid point; row k is held over the whole
    macro step [t_k, t_{k+1}) including the RK4 sub-stages. The final row
    is recorded but never applied. ``state_selector`` restricts the
    divergence limit to those coordinates; the rest must stay finite.
    """
    return _simulate_ct(
        rhs, None, x0, inputs, ts, divergence_limit, label, state_selector
    )


def _simulate_ct(rhs, kernel, x0, inputs, ts, divergence_limit, label, state_selector):
    """:func:`simulate_ct`, run by ``kernel`` (a :class:`kernels.Kernel`)
    instead of ``rhs`` when it is given and the widths match."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    n_steps = inputs.shape[0] - 1
    if n_steps < 1:
        raise DimensionError("need at least two input rows (one step)")
    x0 = np.asarray(x0, dtype=float)
    if kernel is not None and x0.shape == (kernel.n,) and inputs.shape[1] == kernel.n_u:
        states = _kernel_rk4(
            kernel, x0, ts, inputs, n_steps, divergence_limit, label, state_selector
        )
    else:
        states = _rk4(
            rhs,
            x0,
            ts,
            ((u, u, u) for u in inputs[:n_steps]),
            n_steps,
            divergence_limit,
            label,
            state_selector,
        )
    times = np.arange(n_steps + 1) * ts
    return Trajectory(times, states, inputs=inputs, label=label)


def _kernel_rk4(kernel, x0, ts, inputs, n_steps, divergence_limit, label, selector):
    """The (n_steps + 1, n) state record of :func:`_rk4`, from a kernel."""
    if ts <= 0:
        raise ValueError(f"step size must be positive, got {ts}")
    states = np.empty((n_steps + 1, kernel.n))
    states[0] = x0

    def check(step, state):
        _check_state(np.array(state), step, divergence_limit, label, selector)

    table = None
    if kernel.table is not None:
        table = memoryview(kernel.table(inputs[:n_steps]).reshape(-1))
    kernel.run(
        memoryview(states.reshape(-1)),
        memoryview(np.ascontiguousarray(inputs).reshape(-1)),
        table,
        n_steps,
        float(ts),
        float(divergence_limit),
        check,
    )
    return states


def dt_simulate(
    step: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: Sequence[float],
    inputs: np.ndarray,
    n_steps: Optional[int] = None,
    divergence_limit: float = DEFAULT_DIVERGENCE_LIMIT,
    label: str = "dt",
    state_selector: Optional[Sequence[int]] = None,
) -> Trajectory:
    """Iterate a discrete-time map under recorded inputs.

    ``step(x, u)`` returns the successor of state ``x`` under input row
    ``u``, the same contract as the right-hand side ``rhs(x, u)`` of
    :func:`simulate_ct`. ``state_selector`` restricts the divergence limit
    to those coordinates; the rest must stay finite.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if n_steps is None:
        n_steps = inputs.shape[0] - 1
    if inputs.shape[0] < n_steps + 1:
        raise DimensionError(
            f"need {n_steps + 1} input rows for {n_steps} steps, got {inputs.shape[0]}"
        )
    x = np.asarray(x0, dtype=float).copy()
    states = np.empty((n_steps + 1, x.shape[0]))
    states[0] = x
    for k in range(n_steps):
        x = np.asarray(step(x, inputs[k]), dtype=float)
        _check_state(x, k + 1, divergence_limit, label, state_selector)
        states[k + 1] = x
    times = np.arange(n_steps + 1, dtype=float)
    return Trajectory(times, states, inputs=inputs[: n_steps + 1], label=label)


def _simulate(
    time_domain,
    step,
    x0,
    inputs,
    ts,
    divergence_limit,
    label,
    state_selector=None,
    kernel=None,
) -> Trajectory:
    """Integrate ``step(x, u)`` as a vector field or iterate it as a map.

    In continuous time a ``kernel`` (see :mod:`kooplift.kernels`), a
    generated RK4 run of the same vector field, takes the place of ``step``.
    """
    if time_domain == CONTINUOUS:
        if ts is None:
            raise ValueError("continuous-time simulation needs ts")
        return _simulate_ct(
            step,
            kernel,
            x0,
            inputs,
            ts,
            divergence_limit,
            label,
            state_selector,
        )
    return dt_simulate(
        step,
        x0,
        inputs,
        divergence_limit=divergence_limit,
        label=label,
        state_selector=state_selector,
    )


# ---------------------------------------------------------------------------
# excitation signals
# ---------------------------------------------------------------------------


def white_noise(spec: SignalSpec, n_samples: int) -> np.ndarray:
    """Seeded Gaussian samples via the Box-Muller transform over PCG64.

    Spelling out the transform (rather than relying on a library sampler)
    pins the byte-exact sample stream to the documented generator.
    """
    if spec.kind != "white_noise":
        raise ValueError(f"expected a white_noise spec, got {spec.kind!r}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    n_pairs = (n_samples + 1) // 2
    u1 = rng.random(n_pairs)
    u2 = rng.random(n_pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1] keeps log finite
    angle = (2.0 * np.pi) * u2
    pairs = np.empty((n_pairs, 2))
    pairs[:, 0] = radius * np.cos(angle)
    pairs[:, 1] = radius * np.sin(angle)
    return np.sqrt(spec.variance) * pairs.ravel()[:n_samples]


def multisine_frequencies(spec: SignalSpec) -> np.ndarray:
    if spec.n_freq == 1:
        return np.array([spec.f_low])
    step = (spec.f_high - spec.f_low) / (spec.n_freq - 1)
    return spec.f_low + step * np.arange(spec.n_freq)


def multisine(spec: SignalSpec, ts: float, n_steps: int) -> np.ndarray:
    """Zero-phase multisine on the simulation grid (zero at t = 0)."""
    if spec.kind != "multisine":
        raise ValueError(f"expected a multisine spec, got {spec.kind!r}")
    freqs = multisine_frequencies(spec)
    t = np.arange(n_steps + 1) * ts
    return spec.amplitude * np.sin(2.0 * np.pi * np.outer(t, freqs)).sum(axis=1)


def signal_samples(spec: SignalSpec, ts: float, n_steps: int) -> np.ndarray:
    if spec.kind == "zero":
        return np.zeros(n_steps + 1)
    if spec.kind == "white_noise":
        return white_noise(spec, n_steps + 1)
    if spec.kind == "multisine":
        return multisine(spec, ts, n_steps)
    if spec.kind == "custom":
        if spec.samples.shape[0] < n_steps + 1:
            raise DimensionError(
                f"custom signal has {spec.samples.shape[0]} samples, "
                f"need {n_steps + 1}"
            )
        return spec.samples[: n_steps + 1].copy()
    raise ValueError(f"unknown signal kind {spec.kind!r}")


def build_inputs(specs: Sequence[SignalSpec], ts: float, n_steps: int) -> np.ndarray:
    """Stack per-channel signals into an input matrix of shape (N+1, n_u)."""
    return np.stack([signal_samples(s, ts, n_steps) for s in specs], axis=1)


# ---------------------------------------------------------------------------
# model-level simulation
# ---------------------------------------------------------------------------


def simulate_nonlinear(
    decomposition: Decomposition,
    x0: Sequence[float],
    inputs: np.ndarray,
    ts: Optional[float] = None,
    divergence_limit: float = DEFAULT_DIVERGENCE_LIMIT,
    label: str = "nonlinear",
) -> Trajectory:
    """Simulate the original nonlinear system f(x) + g(x, u)."""
    f = decomposition.autonomous.evaluate
    g = decomposition.input_driven
    return _simulate(
        decomposition.time_domain,
        lambda x, u: f(x) + g(x, u),
        x0,
        inputs,
        ts,
        divergence_limit,
        label,
        kernel=nonlinear_kernel(decomposition),
    )


def simulate_lpv(
    model: LiftedModel,
    x0: Optional[Sequence[float]] = None,
    inputs: np.ndarray = None,
    ts: Optional[float] = None,
    z0: Optional[Sequence[float]] = None,
    divergence_limit: float = DEFAULT_DIVERGENCE_LIMIT,
    label: str = "koopman_lpv",
):
    """Simulate the lifted (LPV) model in lifted coordinates.

    Returns (lifted trajectory, output trajectory); the output trajectory
    gathers the identity observables, i.e. x = C z. The divergence limit
    applies to those state coordinates: higher-degree observables of a
    bounded state may exceed it, so they need only stay finite.
    """
    if z0 is None:
        if x0 is None:
            raise ValueError("need x0 or z0")
        z0 = model.dictionary.evaluate(np.asarray(x0, dtype=float))
    selector = list(model.dictionary.state_selector)
    lifted = _simulate(
        model.time_domain,
        lifted_step(model.A, model.factored_input, selector),
        z0,
        inputs,
        ts,
        divergence_limit,
        label,
        state_selector=selector,
        kernel=lpv_kernel(model),
    )
    output = lifted.with_states(lifted.states[:, selector], label=f"{label}_output")
    return lifted, output


def record_input_matrices(model: LiftedModel) -> Tuple[LiftedModel, List[np.ndarray]]:
    """A copy of ``model`` whose B(x, u) also appends each matrix it returns
    to the list returned alongside.

    A discrete-time :func:`simulate_lpv` of the copy records B(x_k, u_k) of
    every step in order: the matrices the error recurrence of
    :func:`~kooplift.bounds.error_trajectory` needs, without simulating the
    run again.
    """
    matrices: List[np.ndarray] = []
    factored = model.factored_input

    def recorded(x, u):
        B = factored(x, u)
        matrices.append(B)
        return B

    return replace(model, factored_input=recorded), matrices


def simulate_lti(
    model: LTIKoopmanModel,
    z0: Sequence[float],
    inputs: np.ndarray,
    ts: Optional[float] = None,
    divergence_limit: float = DEFAULT_DIVERGENCE_LIMIT,
    label: str = "koopman_lti",
):
    """Simulate an LTI lifted model; returns (lifted, output) trajectories."""
    lifted = _simulate(
        model.time_domain,
        lti_step(model.A, model.B),
        z0,
        inputs,
        ts,
        divergence_limit,
        label,
    )
    output = lifted.with_states(lifted.states @ model.C.T, label=f"{label}_output")
    return lifted, output


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------


def error_metrics(
    reference: Trajectory,
    test: Trajectory,
    output_map: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> ErrorReport:
    """Per-state l2 and l-infinity norms of the trajectory difference.

    ``output_map`` maps the test states into the reference coordinates (for
    lifted trajectories pass the model output map); by default states are
    compared directly. Time grids must match exactly.
    """
    if not np.array_equal(reference.times, test.times):
        raise DimensionError("trajectories live on different time grids")
    test_states = output_map(test.states) if output_map is not None else test.states
    if test_states.shape != reference.states.shape:
        raise DimensionError(
            f"state shapes differ: {reference.states.shape} vs {test_states.shape}"
        )
    eps = reference.states - test_states
    return ErrorReport(
        l2=np.sqrt(np.sum(eps * eps, axis=0)),
        linf=np.max(np.abs(eps), axis=0),
        reference_label=reference.label,
        test_label=test.label,
    )
