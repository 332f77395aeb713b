"""Damped-wave boundary-layer solver with slaved vertical velocity.

System (hydrostatic limit of the anisotropic family, on the strip):

    d_t^2 u + d_t u + u d_x u + v d_y u - d_y^2 u + d_x p = 0,
    d_y p = 0,      d_x u + d_y v = 0,      (u, v) = 0 at y = 0, 1,

with v recovered as v = -d_x int_0^y u dy' and the pressure gradient a
y-independent multiplier enforcing the per-mode vertical-mean constraint.
Every right-hand side applies d2/dy2 and int_0^y to the rows of u as
dense BLAS products (`grid.y_dense`).  The advection is row 0 of the
scaled system's advection form `multiply(uv)` on the pair (u, v),
which takes d/dx and d/dy of the pair on physical values inside the
product.

Discrete pressure law
---------------------
The continuum identity d_x p = [d_y u]_0^1 - d_x int_0^1 u^2 dy has a
discrete sibling chosen so conservation is bit-tight: with wall rows of
the acceleration pinned to zero, the trapezoid mean of each x-mode of u
obeys f'' + f' = 0 exactly iff

    d_x p = mean over interior rows of (dyy u - N),

where N is the dealiased advection term.  This interior-row mean equals
the boundary-derivative law up to O(dy) off arbitrary fields and O(dy^2)
on solutions (wall compatibility cancels the leading defect), and it is
what keeps max_x |int_0^1 u dy| at rounding level for all time.  The
factor of N is 1 because only 1 cancels N from the interior mean of the
acceleration: 1/2, the continuum identity as printed, leaks the mean
(a drift above 1e-12 after 200 steps at 32x17).  The m=0 mode of d_x p
is zero (a gradient has no x-mean), so the x-mean mode is driven only by
the O(amplitude^2 dy^2) discrete advection defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, mean_y, multiply, y_dense
from .stepper import SolverAbort, StackedState, rk4_step

__all__ = [
    "PrandtlState",
    "recover_v",
    "prandtl_rhs",
    "prandtl_step",
]

#: largest |int_0^1 u dy| over the x-modes that `check_invariants` accepts
TOL_MEAN = 1e-10


@dataclass(frozen=True)
class PrandtlState(StackedState):
    """Velocity u, its time derivative ut, and the clock, over a
    (2, Nx//3 + 1, Ny) stack of band rows (see `StackedState`)."""

    ROWS = ("u", "ut")
    u: Field
    ut: Field
    t: float = 0.0

    def check_invariants(self):
        super().check_invariants()
        drift = np.abs(mean_y(self.u)).max()
        if drift > TOL_MEAN:
            raise SolverAbort(
                f"vertical-mean drift {drift:.3e} exceeds {TOL_MEAN:.1e} "
                f"at t={self.t}",
                self,
            )


def recover_v(u: Field, report: dict | None = None, out: np.ndarray | None = None) -> Field:
    """Slaved vertical velocity v = -d_x int_0^y u dy' (zero at y = 0), of
    each field of a stack, into `out` if given (see `y_dense`).

    The y = 1 row vanishes only to quadrature accuracy; its largest
    residual is written into `report` when a dict is supplied.
    """
    v = y_dense(u, -1, out=out).rows
    np.multiply(v, -u.grid._dx_rows, out=v)
    if report is not None:
        top = np.abs(v[..., -1]).max()
        scale = max(np.abs(v).max(), 1e-300)
        report["wall_residual"] = float(top)
        report["wall_residual_rel"] = float(top / scale)
    return Field(u.grid, v)


def _advection(u: Field) -> Field:
    """Dealiased u d_x u + v d_y u with the slaved v: row 0 of
    `multiply(uv)`, the advection operator of `hns.hns_rhs` too.  The pair
    (u, v) fills the grid's "advection" work stack, shared with
    `hns.hns_rhs` and read only by the product."""
    g = u.grid
    uv = g.work("advection", (2, g.band, g.Ny))
    uv[0] = u.rows
    recover_v(u, out=uv[1])
    return Field(g, multiply(Field(g, uv)).rows[0])


def prandtl_rhs(state: PrandtlState, linear: bool = False,
                out: np.ndarray | None = None) -> Field:
    """The acceleration dut, a band Field with its wall rows pinned, written
    into `out`, a (Nx//3 + 1, Ny) complex array, when one is given; aborts
    on non-finite values.

    `linear` drops the advection term (verification mode for the linear
    damped-wave envelope); the linear part of the pressure law stays.
    """
    u = state.u
    acc = y_dense(u, 2, out=out).rows
    # the pressure law (module docstring): interior rows summed, one value
    # per x-mode, as .sum(axis=1) computes them
    inner = np.add.reduce(acc[:, 1:-1], axis=1)
    acc -= state.ut.rows
    if not linear:
        N = _advection(u).rows
        inner -= np.add.reduce(N[:, 1:-1], axis=1)
        acc -= N
    pg = inner / (acc.shape[1] - 2)
    pg[0] = 0.0  # a pressure gradient has no x-mean on the torus
    acc -= pg[:, None]
    state.pin(acc)
    if not np.isfinite(acc).all():
        bad = np.argwhere(~np.isfinite(acc))[0]
        raise SolverAbort(
            f"non-finite acceleration at t={state.t}, mode/node {tuple(bad)}", state)
    return Field(u.grid, acc)


def prandtl_step(state: PrandtlState, dt: float, linear: bool = False,
                 check: bool = False) -> PrandtlState:
    """Classical RK4 step (`rk4_step`) on the stack (u, ut); wall rows
    re-pinned afterwards (`StackedState.pin`); `linear` as in `prandtl_rhs`.

    `check` additionally re-validates the state invariants (intended to be
    turned on every N_check steps by the driving loop).
    """
    def accel(stage, out):
        prandtl_rhs(stage, linear, out[0])

    out = state.with_stack(rk4_step(state, dt, accel), t=state.t + dt)
    if check:
        out.check_invariants()
    return out

