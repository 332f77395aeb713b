"""The state layout and the classical RK4 step shared by both solvers, and
their abort type.

A solver state (`StackedState`) owns one stacked complex array,
`state.stack`, of shape (n, Nx//3 + 1, Ny): (u, ut) for the limit system,
(u, v, ut, vt) for the scaled pair.  Each row is the band m = 0..Nx/3 of
a dealiased real field (see `Grid.fold`); its rows |m| > Nx/3 are zero and
its rows m < 0 conjugate mirrors, so neither is stored nor stepped.  A
state type's `pin` is its one boundary rule.  `rk4_step` advances a stack
by one step and pins it.  The stage state and the slope live in the
grid's work buffers (`Grid.work`), reused from step to step; the update
accumulates in low storage, without keeping k1..k4; the new state is
written into one fresh array, because samples keep every returned state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .grid import Field, Grid

__all__ = [
    "SolverAbort",
    "StackedState",
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
    band rows, which the Fields view: a Field is its grid and its band, and
    no full spectrum is stored.  Made from Fields, a state checks that they
    share one grid (a state type checks its own values first, in its
    `__post_init__`) and copies their bands into a new stack once;
    `with_stack` puts a state, at another time if given, over an existing
    stack.  A state is not changed after it is made (samples keep states),
    so one with other fields comes from `dataclasses.replace`, which checks
    them as the constructor does.  A state type imposes its boundary rule
    with `pin`, which `check_invariants` checks.
    """

    ROWS: ClassVar[tuple[str, ...]] = ()
    stack: np.ndarray = field(init=False, repr=False, compare=False)
    grid: Grid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = getattr(self, self.ROWS[0]).grid
        if any(f.grid != g for f in self.fields):
            raise ValueError("all state fields must share one grid")
        object.__setattr__(self, "grid", g)  # frozen: set here, once
        self._set_stack(np.stack([f.rows for f in self.fields]))

    def _set_stack(self, stack: np.ndarray) -> None:
        d, g = self.__dict__, self.grid
        d["stack"] = stack
        for name, rows in zip(self.ROWS, stack):
            d[name] = Field(g, rows)

    @classmethod
    def pin(cls, y: np.ndarray) -> None:
        """Zero, in place, the walls of every row of a stack or of its q_t half."""
        y[..., 0] = 0.0
        y[..., -1] = 0.0

    @property
    def fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.ROWS)

    def with_stack(self, stack: np.ndarray, /, t: float | None = None):
        """This state over the rows of `stack` (not copied), at time `t` if
        given: a copy of the instance dict, cheaper than `dataclasses.replace`."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, t=self.t if t is None else t)
        new._set_stack(stack)
        return new

    def check_invariants(self):
        """Wall rows pinned and values finite in every row; a state type
        extends this with its own invariants.  One pass over the stack per
        check; the first row that fails either is named."""
        y = self.stack
        unpinned = (y[..., 0] != 0.0).any(axis=-1) | (y[..., -1] != 0.0).any(axis=-1)
        finite = np.isfinite(y.view(np.float64)).all(axis=(-2, -1))
        for name, wall, ok in zip(self.ROWS, unpinned, finite):
            if wall:
                raise SolverAbort(f"{name} wall rows not pinned at t={self.t}", self)
            if not ok:
                raise SolverAbort(f"non-finite {name} at t={self.t}", self)


def rk4_step(state, dt: float, accel) -> np.ndarray:
    """One classical RK4 step of length dt of a system second order in
    time, q_tt = accel(q, q_t), from the stacked state y0 = `state.stack`,
    whose first and second halves are q and q_t; returns the new stack.

    `accel(s, out)` writes q_tt at the stage state s into `out`, an array
    shaped like the q_t half.  Stage 1 is `state` itself; stages 2-4 share
    one state over the stage buffer.  The new stack is pinned with the
    state type's rule, `state.pin`.  y0 is only read; the result is fresh.
    Every SolverAbort raised here carries `state`, the last accepted step:
    one from a stage, whose state holds a partial update, is raised again
    with `state`, naming the stage in its reason and in `.stage`.  Overflow
    warnings are off in the stages; the finiteness guards abort instead.
    """
    y0 = state.stack
    if dt <= 0.0:
        raise SolverAbort(f"dt must be positive, got {dt}", state)
    grid = state.grid
    limit = CFL_LIMIT * grid.dy
    if dt > limit:
        raise SolverAbort(f"dt={dt:.3e} exceeds the wave CFL bound {limit:.3e}", state)
    n = len(y0) // 2
    y, k = grid.work("rk4", (2,) + y0.shape)  # stage state, slope
    staged = state.with_stack(y)
    out = np.empty_like(y0)
    # out gathers k1 + 2 k2 + 2 k3 + k4; stage s + 1 starts from y0 + h_s k_s,
    # with k_s = (q_t, q_tt) at stage s: accel writes q_tt into the q_t half
    # of k, and q_t is copied into its q half before y is rewritten.  Real
    # factors scale the float views: the same numbers as complex * real.
    y_f, k_f, out_f = y.view(np.float64), k.view(np.float64), out.view(np.float64)
    s = state
    with np.errstate(over="ignore", invalid="ignore"):
        for stage, h in ((1, 0.5 * dt), (2, 0.5 * dt), (3, dt), (4, None)):
            try:
                accel(s, k[n:])
            except SolverAbort as exc:
                raise SolverAbort(f"RK stage {stage}: {exc.reason}", state, stage) from exc
            k[:n] = s.stack[n:]
            if stage == 1:
                out[...] = k
            elif stage == 4:
                out += k
            else:
                np.multiply(k_f, 2.0, out=y_f)
                out += y
            if h is not None:
                np.multiply(k_f, h, out=y_f)
                y += y0
            s = staged
    out_f *= dt / 6.0
    out += y0
    state.pin(out)
    return out
