"""Damped-wave boundary-layer solver with slaved vertical velocity.

System (hydrostatic limit of the anisotropic family, on the strip):

    d_t^2 u + d_t u + u d_x u + v d_y u - d_y^2 u + d_x p = 0,
    d_y p = 0,      d_x u + d_y v = 0,      (u, v) = 0 at y = 0, 1,

with v recovered as v = -int_0^y d_x u dy' and the pressure gradient a
y-independent multiplier enforcing the per-mode vertical-mean constraint.

Discrete pressure law
---------------------
The continuum identity d_x p = [d_y u]_0^1 - d_x int_0^1 u^2 dy has a
discrete sibling chosen so conservation is bit-tight: with wall rows of
the acceleration pinned to zero, the trapezoid mean of each x-mode of u
obeys f'' + f' = 0 exactly iff

    d_x p = mean over interior rows of (dyy u - factor * N),

where N is the dealiased advection term.  This interior-row mean equals
the boundary-derivative law up to O(dy) off arbitrary fields and O(dy^2)
on solutions (wall compatibility cancels the leading defect), and it is
what keeps max_x |int_0^1 u dy| at rounding level for all time.  The m=0
mode of d_x p is zero (a gradient has no x-mean), so the x-mean mode is
driven only by the O(amplitude^2 dy^2) discrete advection defect.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .grid import Field, dx, dy, integrate_y, mean_y, multiply, unstack, y_diff
from .stepper import CFL_FACTOR, CFL_LIMIT, SolverAbort, rk4_step, stage_abort

__all__ = [
    "SolverAbort",
    "stage_abort",
    "PrandtlState",
    "recover_v",
    "pressure_gradient",
    "prandtl_rhs",
    "prandtl_step",
    "enforce_compatibility",
    "CFL_FACTOR",
    "CFL_LIMIT",
]


@dataclass(frozen=True)
class PrandtlState:
    """Velocity u, its time derivative ut, and the clock.

    The state owns `stack`, one (2, Nx, Ny) complex array whose rows the
    Fields u and ut view.  Made from Fields, a state copies them into a new
    stack once; `with_stack` puts a state over an existing stack.  A state
    is not changed after it is made (samples keep states), so a changed one
    comes from `dataclasses.replace`.
    """

    u: Field
    ut: Field
    t: float = 0.0
    tol_mean: float = 1e-10
    _rows: InitVar[np.ndarray | None] = None
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, _rows):
        if _rows is None:
            _rows = np.stack([self.u.coeff, self.ut.coeff])
        for name, value in zip(("stack", "u", "ut"),
                               (_rows,) + unstack(self.u.grid, _rows)):
            object.__setattr__(self, name, value)  # frozen: set here, once

    def with_stack(self, stack: np.ndarray, **changes) -> "PrandtlState":
        """This state, with `changes`, over the rows of `stack` (not copied)."""
        return replace(self, _rows=stack, **changes)

    def check_invariants(self):
        for name, f in (("u", self.u), ("ut", self.ut)):
            if np.abs(f.coeff[:, 0]).max() != 0.0 or np.abs(f.coeff[:, -1]).max() != 0.0:
                raise SolverAbort(f"{name} wall rows not pinned at t={self.t}", self)
            if not np.isfinite(f.coeff).all():
                raise SolverAbort(f"non-finite {name} at t={self.t}", self)
        drift = np.abs(mean_y(self.u)).max()
        if drift > self.tol_mean:
            raise SolverAbort(
                f"vertical-mean drift {drift:.3e} exceeds {self.tol_mean:.1e} "
                f"at t={self.t}",
                self,
            )

    def copy(self) -> "PrandtlState":
        return PrandtlState(self.u, self.ut, self.t, self.tol_mean)  # a new stack


def recover_v(u: Field, report: dict | None = None) -> Field:
    """Slaved vertical velocity v = -int_0^y d_x u dy' (zero at y = 0).

    The y = 1 row vanishes only to quadrature accuracy; its residual is
    written into `report` when a dict is supplied.
    """
    v = _slaved_v(dx(u))
    if report is not None:
        top = np.abs(v.coeff[:, -1]).max()
        scale = max(np.abs(v.coeff).max(), 1e-300)
        report["wall_residual"] = float(top)
        report["wall_residual_rel"] = float(top / scale)
    return v


def _slaved_v(ux: Field) -> Field:
    """v = -int_0^y ux dy' from ux = d_x u."""
    v = integrate_y(ux)
    v.coeff *= -1.0
    return v


def _advection(u: Field) -> Field:
    """Dealiased u d_x u + v d_y u with the slaved v."""
    ux = dx(u)
    return multiply((u, _slaved_v(ux)), (ux, dy(u)))


def _pressure_from(visc: np.ndarray, N: Field | None, factor: float) -> np.ndarray:
    """Interior-row-mean pressure law, one value per x-mode, from the
    coefficients of dyy u and the advection term."""
    inner = visc[:, 1:-1].sum(axis=1)
    if N is not None:
        inner = inner - factor * N.coeff[:, 1:-1].sum(axis=1)
    vals = inner / (visc.shape[1] - 2)
    vals[0] = 0.0  # a pressure gradient has no x-mean on the torus
    return vals


def pressure_gradient(u: Field, factor: float = 1.0) -> Field:
    """y-independent d_x p with quadratic coefficient `factor` (m = 0 zeroed).

    factor = 1 (default) is the conservative choice; 1/2 mirrors the
    continuum identity as printed and is selectable for comparison runs.
    """
    g = u.grid
    vals = _pressure_from(y_diff(u.coeff, g.dy, 2), _advection(u), factor)
    return Field(g, np.broadcast_to(vals[:, None], (g.Nx, g.Ny)).copy())


def prandtl_rhs(
    state: PrandtlState,
    factor: float = 1.0,
    disable_nonlinear: bool = False,
    out: np.ndarray | None = None,
) -> tuple[Field, Field]:
    """(du, dut) with wall rows of dut pinned; aborts on non-finite values.

    disable_nonlinear drops the advection term (verification mode for the
    linear damped-wave envelope); the linear part of the pressure law stays.
    dut is written into `out`, an (Nx, Ny) complex array, when one is given.
    """
    u, ut = state.u, state.ut
    g = u.grid
    acc = y_diff(u.coeff, g.dy, 2, out=out)
    N = None if disable_nonlinear else _advection(u)
    pg = _pressure_from(acc, N, factor)
    acc -= ut.coeff
    if N is not None:
        acc -= N.coeff
    acc -= pg[:, None]
    acc[:, 0] = acc[:, -1] = 0.0
    if not np.isfinite(acc).all():
        bad = np.argwhere(~np.isfinite(acc))[0]
        raise SolverAbort(
            f"non-finite acceleration at t={state.t}, mode/node {tuple(bad)}",
            state,
        )
    return ut, Field(g, acc)


def _pin_walls(y: np.ndarray) -> None:
    y[..., 0] = 0.0
    y[..., -1] = 0.0


def prandtl_step(
    state: PrandtlState,
    dt: float,
    factor: float = 1.0,
    disable_nonlinear: bool = False,
    check: bool = False,
) -> PrandtlState:
    """Classical RK4 step (`rk4_step`) on the stack (u, ut); wall rows
    re-pinned afterwards.

    `check` additionally re-validates the state invariants (intended to be
    turned on every N_check steps by the driving loop).
    """
    def rhs(stage, k):
        return [f.coeff for f in prandtl_rhs(stage, factor, disable_nonlinear, k[1])]

    out = state.with_stack(rk4_step(state, dt, rhs, _pin_walls), t=state.t + dt)
    if check:
        out.check_invariants()
    return out


def enforce_compatibility(u0: Field, u1: Field) -> tuple[Field, Field]:
    """Project out the per-mode vertical mean with a fixed wall-safe profile.

    The correction profile is sin(pi y) scaled by its own discrete
    trapezoid integral, so the corrected mean vanishes identically.  (A
    zero-mean profile like sin(2 pi y) cannot carry mean and would leave
    the defect untouched.)  Compatible data passes through unchanged.
    """
    g = u0.grid
    prof = np.sin(np.pi * g.y)
    prof[0] = prof[-1] = 0.0
    prof = prof / float(prof @ g.trapz_w)

    def fix(f: Field) -> Field:
        means = mean_y(f)
        return Field(g, f.coeff - means[:, None] * prof[None, :])

    return fix(u0), fix(u1)
