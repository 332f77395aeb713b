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

from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .grid import (
    Field,
    dealias,
    dx,
    dy,
    dyy,
    integrate_y,
    mean_y,
    multiply,
    pin_walls,
)

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

CFL_FACTOR = 0.25  # default dt = CFL_FACTOR * dy
CFL_LIMIT = 0.70  # hard abort above this multiple of dy (RK4 wave limit ~1.4)


class SolverAbort(RuntimeError):
    """Raised when a stepper detects an unusable state (NaN, CFL, invariants).

    Carries the offending state (if available) so the harness can dump a
    diagnostic snapshot before dying.
    """

    def __init__(self, reason: str, state=None):
        super().__init__(reason)
        self.reason = reason
        self.state = state


@contextmanager
def stage_abort(stage: int, state):
    """Re-raise a SolverAbort from RK stage `stage` against the step's input.

    A stage state is not a step state (it is stamped with the step's start
    time but holds a partial update), so the abort carries `state`, the
    last accepted step, and names the stage in its reason.
    """
    try:
        yield
    except SolverAbort as exc:
        raise SolverAbort(f"RK stage {stage}: {exc.reason}", state) from exc


@dataclass
class PrandtlState:
    """Velocity u, its time derivative ut, and the clock."""

    u: Field
    ut: Field
    t: float = 0.0
    tol_mean: float = 1e-10

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
        return PrandtlState(self.u.copy(), self.ut.copy(), self.t, self.tol_mean)


def recover_v(u: Field, report: dict | None = None) -> Field:
    """Slaved vertical velocity v = -int_0^y d_x u dy' (zero at y = 0).

    The y = 1 row vanishes only to quadrature accuracy; its residual is
    written into `report` when a dict is supplied.
    """
    v = -1.0 * integrate_y(dx(u))
    if report is not None:
        top = np.abs(v.coeff[:, -1]).max()
        scale = max(np.abs(v.coeff).max(), 1e-300)
        report["wall_residual"] = float(top)
        report["wall_residual_rel"] = float(top / scale)
    return v


def _advection(u: Field) -> Field:
    """Dealiased u d_x u + v d_y u with the slaved v."""
    return multiply((u, recover_v(u)), (dx(u), dy(u)))


def _pressure_from(visc: Field, N: Field | None, factor: float) -> Field:
    """Interior-row-mean pressure law from precomputed dyy u and advection."""
    g = visc.grid
    inner = visc.coeff[:, 1:-1].sum(axis=1)
    if N is not None:
        inner = inner - factor * N.coeff[:, 1:-1].sum(axis=1)
    vals = inner / (g.Ny - 2)
    vals[0] = 0.0  # a pressure gradient has no x-mean on the torus
    return Field(g, np.broadcast_to(vals[:, None], (g.Nx, g.Ny)).copy())


def pressure_gradient(u: Field, factor: float = 1.0) -> Field:
    """y-independent d_x p with quadratic coefficient `factor` (m = 0 zeroed).

    factor = 1 (default) is the conservative choice; 1/2 mirrors the
    continuum identity as printed and is selectable for comparison runs.
    """
    return _pressure_from(dyy(u), _advection(u), factor)


def prandtl_rhs(
    state: PrandtlState,
    factor: float = 1.0,
    disable_nonlinear: bool = False,
) -> tuple[Field, Field]:
    """(du, dut) with wall rows of dut pinned; aborts on non-finite values.

    disable_nonlinear drops the advection term (verification mode for the
    linear damped-wave envelope); the linear part of the pressure law stays.
    """
    u, ut = state.u, state.ut
    visc = dyy(u)
    N = None if disable_nonlinear else _advection(u)
    pg = _pressure_from(visc, N, factor)
    acc = visc - ut - pg if N is None else visc - ut - N - pg
    dut = pin_walls(acc)
    if not np.isfinite(dut.coeff).all():
        bad = np.argwhere(~np.isfinite(dut.coeff))[0]
        raise SolverAbort(
            f"non-finite acceleration at t={state.t}, mode/node {tuple(bad)}",
            state,
        )
    return ut, dut


def prandtl_step(
    state: PrandtlState,
    dt: float,
    factor: float = 1.0,
    disable_nonlinear: bool = False,
    check: bool = False,
) -> PrandtlState:
    """Classical RK4 step on (u, ut); wall rows re-pinned afterwards.

    `check` additionally re-validates the state invariants (intended to be
    turned on every N_check steps by the driving loop).
    """
    g = state.u.grid
    if dt <= 0.0:
        raise SolverAbort(f"nonpositive dt {dt}", state)
    if dt > CFL_LIMIT * g.dy:
        raise SolverAbort(
            f"dt={dt:.3e} exceeds the wave CFL bound {CFL_LIMIT * g.dy:.3e}",
            state,
        )

    def rhs(stage, u, ut):
        with stage_abort(stage, state):
            return prandtl_rhs(
                PrandtlState(u, ut, state.t), factor, disable_nonlinear
            )

    u, ut = state.u, state.ut
    k1u, k1t = rhs(1, u, ut)
    k2u, k2t = rhs(2, u + (0.5 * dt) * k1u, ut + (0.5 * dt) * k1t)
    k3u, k3t = rhs(3, u + (0.5 * dt) * k2u, ut + (0.5 * dt) * k2t)
    k4u, k4t = rhs(4, u + dt * k3u, ut + dt * k3t)
    sixth = dt / 6.0
    new_u = pin_walls(u + sixth * (k1u + 2.0 * k2u + 2.0 * k3u + k4u))
    new_ut = pin_walls(ut + sixth * (k1t + 2.0 * k2t + 2.0 * k3t + k4t))
    out = PrandtlState(new_u, new_ut, state.t + dt, state.tol_mean)
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
