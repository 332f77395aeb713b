"""The classical RK4 step shared by both solvers, and its abort type.

A solver state owns one stacked complex array, `state.stack`, of shape
(n, Nx, Ny): (u, ut) for the limit system, (u, v, ut, vt) for the scaled
pair.  `rk4_step` advances such a stack by one step.  Stage states and
right-hand-side outputs live in the grid's work buffers (`Grid.work`) and
are reused from step to step; the update accumulates in low storage,
without keeping k1..k4; the new state is written into one fresh array,
because samples keep every returned state.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .grid import real_view

__all__ = [
    "SolverAbort",
    "stage_abort",
    "rk4_step",
    "CFL_FACTOR",
    "CFL_LIMIT",
]

#: default time step as a multiple of dy.
CFL_FACTOR = 0.25
#: hard abort above this multiple of dy (RK4 wave limit ~1.4).
CFL_LIMIT = 0.70


class SolverAbort(RuntimeError):
    """Raised when a stepper detects an unusable state (NaN, CFL, invariants).

    Carries the offending state (if available) so the harness can dump a
    diagnostic snapshot before dying, and the RK stage (1-4) it came from,
    None outside a stage.
    """

    def __init__(self, reason: str, state=None, stage: int | None = None):
        super().__init__(reason)
        self.reason = reason
        self.state = state
        self.stage = stage


@contextmanager
def stage_abort(stage: int, state):
    """Re-raise a SolverAbort from RK stage `stage` against the step's input.

    A stage state is not a step state (it is stamped with the step's start
    time but holds a partial update), so the abort carries `state`, the
    last accepted step, names the stage in its reason and stores it as
    `.stage`.
    """
    try:
        yield
    except SolverAbort as exc:
        raise SolverAbort(f"RK stage {stage}: {exc.reason}", state, stage) from exc


def rk4_step(state, dt: float, rhs, pin) -> np.ndarray:
    """One classical RK4 step of length dt from the stacked state y0 =
    `state.stack`; returns the new stack.

    `rhs(s, k)` returns the n derivative rows at the stage state s; it may
    write them into k, an array shaped like y0, or return rows of s's
    stack at a later index (d/dt u = ut).  Stage 1 is `state` itself;
    stages 2-4 share one state over the stage buffer, refilled per stage.
    `pin(out)` re-imposes the boundary rows on the new state in place.  y0
    is only read; the result is a fresh array.  `state` is the step's
    input, carried by every SolverAbort raised here, including a stage's
    (see `stage_abort`).
    """
    y0 = state.stack
    if dt <= 0.0:
        raise SolverAbort(f"dt must be positive, got {dt}", state)
    grid = state.u.grid
    limit = CFL_LIMIT * grid.dy
    if dt > limit:
        raise SolverAbort(f"dt={dt:.3e} exceeds the wave CFL bound {limit:.3e}", state)
    n = len(y0)
    y, k = grid.work("rk4.stage", n), grid.work("rk4.rhs", n)
    staged = state.with_stack(y)
    out = np.empty_like(y0)
    # out gathers k1 + 2 k2 + 2 k3 + k4; stage s + 1 starts from y0 + h_s k_s.
    # Row i of y is free until its own update, so it holds 2 k_s first.
    # Real factors scale the float views: the same numbers as complex * real.
    for stage, h in ((1, 0.5 * dt), (2, 0.5 * dt), (3, dt), (4, None)):
        with stage_abort(stage, state):
            ks = rhs(state if stage == 1 else staged, k)
        for i, ki in enumerate(ks):
            if stage == 1:
                out[i] = ki
            elif stage == 4:
                out[i] += ki
            else:
                np.multiply(real_view(ki), 2.0, out=real_view(y[i]))
                out[i] += y[i]
            if h is not None:
                np.multiply(real_view(ki), h, out=real_view(y[i]))
                y[i] += y0[i]
    scaled = real_view(out)
    scaled *= dt / 6.0
    out += y0
    pin(out)
    return out
