"""Deterministic simulation, excitation signals and error metrics.

Continuous-time models are integrated with classical fixed-step RK4; input
signals are generated on the integration grid t_k = k * Ts and zero-order
held across each macro step (the sub-stages reuse the held value). One loop,
:func:`run_stack`, steps every numpy-path run, a discrete-time map or an RK4
step, alone or stacked, and applies the divergence rule once per block. All
randomness flows through explicitly seeded generators so identical
configurations reproduce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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
            samples = np.asarray(self.samples, dtype=float)
            if samples.ndim != 1:
                raise ValueError(
                    f"custom samples must be a list of numbers, got shape {samples.shape}"
                )
            broken = np.flatnonzero(~np.isfinite(samples))
            if broken.shape[0]:
                raise ValueError(f"custom sample {broken[0]} is {samples[broken[0]]}, not finite")
            self.samples = samples
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

    def to_document(self) -> dict:
        return {
            "reference": self.reference_label,
            "test": self.test_label,
            "errors": [
                {"state_index": i, "l2": float(l2), "linf": float(linf)}
                for i, (l2, linf) in enumerate(zip(self.l2, self.linf))
            ],
        }


# ---------------------------------------------------------------------------
# integrators
# ---------------------------------------------------------------------------


def diverged(values: np.ndarray, limit: float, selector=None) -> np.ndarray:
    """One flag per state of ``values``: whether a coordinate in
    ``selector`` (every one for None) is above ``limit`` or any coordinate
    is not finite. The one divergence rule.

    ``values`` is a state or a stack of states of any leading shape, each
    state along the last axis: a ``(b, M, n)`` block of ``b`` steps of
    ``M`` runs gives ``(b, M)`` flags, each that of its own state."""
    magnitudes = np.abs(values)
    # NaN fails the comparison, so within a finite limit all is finite
    if magnitudes.max() <= limit < np.inf:
        return np.zeros(magnitudes.shape[:-1], dtype=bool)
    held = magnitudes if selector is None else magnitudes[..., selector]
    return np.any(held > limit, axis=-1) | ~np.all(np.isfinite(magnitudes), axis=-1)


def _divergence(label: str, step: int, limit: float) -> DivergenceError:
    reason = f"|state| exceeded {limit:g} or became non-finite"
    return DivergenceError(f"simulation {label!r} diverged at step {step} ({reason})", step=step)


# steps between two applications of the divergence rule; a block of 37
# members 102 wide is 242 KB
BLOCK_STEPS = 8


def run_stack(step, start, n_steps, limit, selector, record):
    """Step the (M, n) stack ``start`` of M runs ``n_steps`` times.

    ``step(states, k, live, out)`` writes into ``out`` the successors of the
    step-k ``states`` of the members ``live``, indices into the stack (one
    object until a member leaves), and does not write to ``states``. The
    columns ``selector`` are held to ``limit`` and all must stay finite
    (:func:`diverged`). Returns ``(states, diverged_at)``: each member's
    columns ``record``, (M, n_steps + 1, recorded), NaN from its divergence
    step on, and the (M,) divergence steps, 0 for a member that never did.

    The stack steps ``BLOCK_STEPS`` steps at a time with no bookkeeping, and
    the divergence rule is applied once per block: a member diverges at its
    first broken step in it, and only then leaves the stack. Until then
    ``step`` may see its inf or NaN up to ``BLOCK_STEPS - 1`` more times; a
    step whose arithmetic is each member's own keeps that from the others,
    and every member keeps the bits of a run checked step by step.
    """
    states = np.full((len(start), n_steps + 1, start[:, record].shape[1]), np.nan)
    states[:, 0] = start[:, record]
    diverged_at = np.zeros(len(start), dtype=int)
    live = np.arange(len(start))
    rows = slice(None)  # the rows of ``states`` the stack still fills
    # row j of a block: the live members' states at step k + 1 + j
    buffer = np.empty((min(BLOCK_STEPS, n_steps),) + start.shape)
    now = start
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, n_steps, BLOCK_STEPS):
            block = buffer[: min(BLOCK_STEPS, n_steps - k), : live.size]
            for j, out in enumerate(block, k):
                step(now, j, live, out)
                now = out
            states[rows, k + 1 : k + 1 + len(block)] = block[:, :, record].swapaxes(0, 1)
            broken = diverged(block, limit, selector)
            if not broken.any():
                continue
            hit = broken.any(axis=0)
            for m, first in zip(live[hit], broken.argmax(axis=0)[hit] + k + 1):
                diverged_at[m] = first
                states[m, first:] = np.nan
            live, now = live[~hit], now[~hit]
            if live.size == 0:
                break
            rows = live
    return states, diverged_at


def _rk4(rhs, ts, stages):
    """The classical fourth-order Runge-Kutta step of fixed size ``ts``, the
    map ``(x, row) -> x_next``: ``stages(row)`` gives the second arguments
    ``rhs(x, v)`` takes at the step's start, midpoint and end."""
    if ts <= 0:
        raise ValueError(f"step size must be positive, got {ts}")
    half = 0.5 * ts
    sixth = ts / 6.0

    def step(x, row):
        start, mid, end = stages(row)
        k1 = rhs(x, start)
        k2 = rhs(x + half * k1, mid)
        k3 = rhs(x + half * k2, mid)
        k4 = rhs(x + ts * k3, end)
        return x + sixth * (k1 + 2.0 * (k2 + k3) + k4)

    return step


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
    times = t0 + np.arange(n_steps + 1) * ts
    step = _rk4(lambda x, t: field(t, x), ts, lambda t: (t[0], t[0] + 0.5 * ts, t[0] + ts))
    states = dt_simulate(step, x0, times[:, None], n_steps, divergence_limit, label).states
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
    return _simulate(CONTINUOUS, rhs, x0, inputs, ts, divergence_limit, label, state_selector)


def _kernel_rk4(kernel, x0, ts, inputs, n_steps, divergence_limit, label, selector):
    """The (n_steps + 1, n) state record of the :func:`_rk4` run, from a kernel."""
    if ts <= 0:
        raise ValueError(f"step size must be positive, got {ts}")
    states = np.empty((n_steps + 1, kernel.n))
    states[0] = x0

    def check(step, state):
        if diverged(np.array(state), divergence_limit, selector):
            raise _divergence(label, step, divergence_limit)

    kernel.run(
        memoryview(states.reshape(-1)),
        memoryview(np.ascontiguousarray(inputs).reshape(-1)),
        n_steps,
        float(ts),
        # a finite prefilter hands every non-finite state on to the check
        min(float(divergence_limit), np.finfo(float).max),
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
    to those coordinates; the rest must stay finite. The run is the
    one-member case of :func:`run_stack`: ``step`` may be called on a
    broken state up to ``BLOCK_STEPS - 1`` more times before the run stops,
    and the :class:`DivergenceError` names the first broken step.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if n_steps is None:
        n_steps = inputs.shape[0] - 1
    if inputs.shape[0] < n_steps + 1:
        raise DimensionError(
            f"need {n_steps + 1} input rows for {n_steps} steps, got {inputs.shape[0]}"
        )

    def member_step(x, k, live, out):
        out[0] = step(x[0], inputs[k])

    x0 = np.asarray(x0, dtype=float)
    states, (diverged_at,) = run_stack(
        member_step, x0[None], n_steps, divergence_limit, state_selector, slice(None)
    )
    if diverged_at:
        raise _divergence(label, int(diverged_at), divergence_limit)
    times = np.arange(n_steps + 1, dtype=float)
    return Trajectory(times, states[0], inputs=inputs[: n_steps + 1], label=label)


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
    generated RK4 run of the same vector field, takes the place of ``step``
    when its widths match the state and the inputs.
    """
    if time_domain == CONTINUOUS:
        if ts is None:
            raise ValueError("continuous-time simulation needs ts")
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
            step = _rk4(step, ts, lambda u: (u, u, u))
            run = dt_simulate(step, x0, inputs, n_steps, divergence_limit, label, state_selector)
            states = run.states
        times = np.arange(n_steps + 1) * ts
        return Trajectory(times, states, inputs=inputs, label=label)
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
    return _simulate(
        decomposition.time_domain,
        decomposition.eval_full,
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
    holds those state coordinates, as in every lifted run: higher-degree
    observables of a bounded state may exceed it and need only stay finite.
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


def simulate_lti(
    model: LTIKoopmanModel,
    z0: Sequence[float],
    inputs: np.ndarray,
    ts: Optional[float] = None,
    divergence_limit: float = DEFAULT_DIVERGENCE_LIMIT,
    label: str = "koopman_lti",
):
    """Simulate an LTI lifted model; returns (lifted, output) trajectories.
    As in every lifted run, the divergence limit holds the state (what C reads)."""
    lifted = _simulate(
        model.time_domain,
        lti_step(model.A, model.B),
        z0,
        inputs,
        ts,
        divergence_limit,
        label,
        state_selector=np.flatnonzero(np.any(model.C, axis=0)),
    )
    output = lifted.with_states(lifted.states @ model.C.T, label=f"{label}_output")
    return lifted, output


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------


def error_metrics(reference: Trajectory, test: Trajectory) -> ErrorReport:
    """Per-state l2 and l-infinity norms of the trajectory difference.

    The states are compared directly, so a lifted trajectory is mapped to
    the reference's coordinates first. Time grids must match exactly.
    """
    if not np.array_equal(reference.times, test.times):
        raise DimensionError("trajectories live on different time grids")
    if test.states.shape != reference.states.shape:
        raise DimensionError(
            f"state shapes differ: {reference.states.shape} vs {test.states.shape}"
        )
    eps = reference.states - test.states
    return ErrorReport(
        l2=np.sqrt(np.sum(eps * eps, axis=0)),
        linf=np.max(np.abs(eps), axis=0),
        reference_label=reference.label,
        test_label=test.label,
    )
