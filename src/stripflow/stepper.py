"""The state layout and the classical RK4 step shared by both solvers, and
their abort type.

A solver state (`StackedState`) owns one stacked complex array,
`state.stack`, of shape (n, Nx//3 + 1, Ny): (u, ut) for the limit system,
(u, v, ut, vt) for the scaled pair.  Each row is the band m = 0..Nx/3 of
a dealiased real field (see `Grid.fold`); its rows |m| > Nx/3 are zero and
its rows m < 0 conjugate mirrors, so neither is stored nor stepped.
`rk4_step` advances such a stack by one step.  Stage states and
accelerations live in the grid's work buffers (`Grid.work`) and are
reused from step to step; the update accumulates in low storage, without
keeping k1..k4; the new state is written into one fresh array, because
samples keep every returned state.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import InitVar, dataclass, field, replace
from typing import ClassVar

import numpy as np

from .grid import real_view, unstack

__all__ = [
    "SolverAbort",
    "StackedState",
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


@dataclass(frozen=True)
class StackedState:
    """Base of the solver states, which declare the `ROWS` Fields and a clock `t`.

    The state owns `stack`, one (len(ROWS), Nx//3 + 1, Ny) complex array of
    band rows, which the Fields view as band Fields: `state.u.coeff` is the
    full spectrum, unfolded on each read and never stored, and read-only.
    Made from Fields, a state checks that they share one grid and copies
    their bands into a new stack once, folding full Fields (`Grid.fold`,
    which raises ValueError on content it would drop); `with_stack` puts a
    state over an existing stack.  A state is not changed after it is made
    (samples keep states), so a changed one comes from `with_stack` or
    `dataclasses.replace`.
    """

    ROWS: ClassVar[tuple[str, ...]] = ()
    _rows: InitVar[np.ndarray | None] = field(default=None, kw_only=True)
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, _rows):
        g = self.grid
        if _rows is None:
            if any(f.grid != g for f in self.fields):
                raise ValueError("all state fields must share one grid")
            _rows = np.stack([f.rows if f.is_band else g.fold(f.rows)
                              for f in self.fields])
        for name, value in zip(("stack",) + self.ROWS, (_rows,) + unstack(g, _rows)):
            object.__setattr__(self, name, value)  # frozen: set here, once

    @property
    def grid(self):
        return getattr(self, self.ROWS[0]).grid

    @property
    def fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.ROWS)

    def with_stack(self, stack: np.ndarray, **changes):
        """This state, with `changes`, over the rows of `stack` (not copied)."""
        return replace(self, _rows=stack, **changes)

    def check_invariants(self):
        """Wall rows pinned and values finite in every row; a state type
        extends this with its own invariants."""
        for name, rows in zip(self.ROWS, self.stack):
            if np.any(rows[:, 0] != 0.0) or np.any(rows[:, -1] != 0.0):
                raise SolverAbort(f"{name} wall rows not pinned at t={self.t}", self)
            if not np.isfinite(rows).all():
                raise SolverAbort(f"non-finite {name} at t={self.t}", self)


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


def rk4_step(state, dt: float, accel, pin) -> np.ndarray:
    """One classical RK4 step of length dt of a system second order in
    time, q_tt = accel(q, q_t), from the stacked state y0 = `state.stack`,
    whose first and second halves are q and q_t; returns the new stack.

    `accel(s, out)` writes q_tt at the stage state s into `out`, an array
    shaped like the q_t half.  Stage 1 is `state` itself; stages 2-4 share
    one state over the stage buffer, refilled per stage.  `pin(out)`
    re-imposes the boundary rows on the new state in place.  y0 is only
    read; the result is a fresh array.  `state` is the step's input,
    carried by every SolverAbort raised here, including a stage's (see
    `stage_abort`).
    """
    y0 = state.stack
    if dt <= 0.0:
        raise SolverAbort(f"dt must be positive, got {dt}", state)
    grid = state.grid
    limit = CFL_LIMIT * grid.dy
    if dt > limit:
        raise SolverAbort(f"dt={dt:.3e} exceeds the wave CFL bound {limit:.3e}", state)
    n = len(y0) // 2
    y, acc = grid.work("rk4.stage", y0.shape), grid.work("rk4.rhs", y0[n:].shape)
    staged = state.with_stack(y)
    out = np.empty_like(y0)
    # out gathers k1 + 2 k2 + 2 k3 + k4; stage s + 1 starts from y0 + h_s k_s,
    # with k_s = (q_t, q_tt) at stage s.  The q half of y is free once read,
    # so it holds 2 k_s first; its q_t half is read before it is rewritten.
    # Real factors scale the float views: the same numbers as complex * real.
    for stage, h in ((1, 0.5 * dt), (2, 0.5 * dt), (3, dt), (4, None)):
        s = state if stage == 1 else staged
        with stage_abort(stage, state):
            accel(s, acc)
        for rows, ks in ((slice(0, n), s.stack[n:]), (slice(n, None), acc)):
            if stage == 1:
                out[rows] = ks
            elif stage == 4:
                out[rows] += ks
            else:
                np.multiply(real_view(ks), 2.0, out=real_view(y[rows]))
                out[rows] += y[rows]
            if h is not None:
                np.multiply(real_view(ks), h, out=real_view(y[rows]))
                y[rows] += y0[rows]
    scaled = real_view(out)
    scaled *= dt / 6.0
    out += y0
    pin(out)
    return out
