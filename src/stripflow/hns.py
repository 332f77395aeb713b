"""Scaled anisotropic damped-wave flow with an incompressibility constraint.

System on the strip (x periodic, 0 < y < 1), with anisotropy parameter
eps in (0, 1]:

    u_tt + u_t + u u_x + v u_y - eps^2 u_xx - u_yy + p_x = 0
    eps^2 (v_tt + v_t + u v_x + v v_y - eps^2 v_xx - v_yy) + p_y = 0
    u_x + v_y = 0,        (u, v) = (0, 0) at y = 0 and y = 1

The pressure is whatever scalar field keeps the velocity divergence-free.
The stepper realizes it as an exact discrete projection: with D the
discrete d/dy matrix, M the interior-row mask and F the provisional
(pinned) acceleration, a potential q solves per x-mode

    (-xi^2 M + eps^-2 D M D) q = i xi F1 + D F2,

and the masked weighted gradient (i xi M q, eps^-2 M D q) is subtracted.
All modes share the pencil (D M D, M), diagonalised once per Ny, so one
projection of every mode is two real matrix products.  By construction
the discrete divergence d_x(dut) + d_y(dvt) of the resulting acceleration
vanishes at *every* row to solver precision, so the state divergence
never drifts beyond integrator roundoff.  The tests cross-check this
pressure against the classical route, a second-order per-mode Neumann
solve with ghost-node wall data.

The x-mean of v is pinned to zero throughout: integrating the constraint
up from the wall forces it, and it is the nullspace of the projection
operator, so it is enforced directly rather than solved for.  The x-mean
of the second equation then only determines a diagnostic pressure profile
and never feeds back into u.

Storage and stepping: a state owns one stacked complex array
``HnsState.stack`` of shape (4, Nx, Ny), rows (u, v, ut, vt), and its
Fields are views of those rows.  ``hns_step`` advances the stack with the
RK4 step shared with the limit system (``stepper.rk4_step``).  The
right-hand side applies the y stencils to the stacked pair (u, v) in one
pass and takes both advection terms, N1 = u u_x + v u_y and
N2 = u v_x + v v_y, from the two-output form of ``multiply``: u + i v goes
to physical x once, u_x + i v_x and u_y + i v_y once each, and N1 + i N2
takes one forward transform that conjugate symmetry splits, so a
right-hand side costs four transforms.
"""

from __future__ import annotations

import logging
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .gevrey import GevreyParams, apply_gevrey
from .grid import (Field, cumulative_trapezoid, dx, dy, dy_matrix, l2_norm,
                   mean_y, multiply, pin_walls, real_view, unstack, y_diff)
from .prandtl import recover_v
from .stepper import SolverAbort, rk4_step

log = logging.getLogger(__name__)

#: divergence cleanup / energy check cadence, in steps.
N_PROJ = 50
#: abort when the weighted energy grows by this factor between checks.
ENERGY_GROWTH_LIMIT = 10.0


@dataclass(frozen=True)
class HnsState:
    """Velocity pair, its time derivative, the anisotropy, and the clock.

    The state owns `stack`, one (4, Nx, Ny) complex array whose rows the
    Fields u, v, ut and vt view.  Made from Fields, a state copies them
    into a new stack once; `with_stack` puts a state over an existing stack.
    A state is not changed after it is made (samples keep states), so a
    changed one comes from `dataclasses.replace`.
    """

    u: Field
    v: Field
    ut: Field
    vt: Field
    eps: float
    t: float = 0.0
    tol_div: float = 1e-6
    steps: int = 0
    energy_mark: float = field(default=-1.0, repr=False)
    _rows: InitVar[np.ndarray | None] = None
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, _rows):
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        g = self.u.grid
        if _rows is None:
            for f in (self.v, self.ut, self.vt):
                if f.grid != g:
                    raise ValueError("all state fields must share one grid")
            _rows = np.stack([f.coeff for f in self.fields])
        for name, value in zip(("stack", "u", "v", "ut", "vt"),
                               (_rows,) + unstack(g, _rows)):
            object.__setattr__(self, name, value)  # frozen: set here, once

    def with_stack(self, stack: np.ndarray, **changes) -> "HnsState":
        """This state, with `changes`, over the rows of `stack` (not copied)."""
        return replace(self, _rows=stack, **changes)

    @property
    def grid(self):
        return self.u.grid

    @property
    def fields(self) -> tuple[Field, Field, Field, Field]:
        return (self.u, self.v, self.ut, self.vt)

    def copy(self) -> "HnsState":
        return replace(self)  # made from the Fields: a new stack

    def divergence(self) -> Field:
        return dx(self.u) + dy(self.v)

    def divergence_rel(self) -> float:
        scale = l2_norm(dx(self.u)) + l2_norm(dy(self.v))
        if scale == 0.0:
            return 0.0
        return l2_norm(self.divergence()) / scale

    def energy(self) -> float:
        """Graph (Lyapunov) energy of the damped-wave pair.

        The plain L2 size of (u, ut) is not phase-invariant: started from
        rest, |ut| legitimately grows by the oscillation frequency before
        decaying, which would false-trigger any growth guard.  The graph
        energy  eps^2|dx u|^2 + |dy u|^2 + |ut|^2  (plus the eps-weighted
        v terms) is monotone along the damped wave up to small-data terms.
        """
        e2 = self.eps**2

        def graph(f, ft):
            return (e2 * l2_norm(dx(f)) ** 2 + l2_norm(dy(f)) ** 2
                    + l2_norm(ft) ** 2)

        return graph(self.u, self.ut) + e2 * graph(self.v, self.vt)

    def check_invariants(self):
        for name, f in (("u", self.u), ("v", self.v),
                        ("ut", self.ut), ("vt", self.vt)):
            c = f.coeff
            if np.any(c[:, 0] != 0.0) or np.any(c[:, -1] != 0.0):
                raise SolverAbort(f"wall rows of {name} not pinned", self)
            if not np.all(np.isfinite(c)):
                raise SolverAbort(f"non-finite values in {name}", self)
        for name, f in (("v", self.v), ("vt", self.vt)):
            if np.any(f.coeff[0] != 0.0):
                raise SolverAbort(f"x-mean of {name} not pinned", self)
        rel = self.divergence_rel()
        if rel > self.tol_div:
            raise SolverAbort(
                f"divergence {rel:.3e} exceeds tolerance {self.tol_div:.1e}",
                self,
            )


# ---------------------------------------------------------------------------
# Exact discrete projection
# ---------------------------------------------------------------------------

class _Eigenbasis:
    """Shared eigenbasis of the pencil (K, M) for one Ny, with K = D M D.

    Every x-mode's operator is eps^-2 (K - s M) with s = eps^2 xi^2, so the
    pencil diagonalises them all at once (the fast diagonalisation method
    of Lynch, Rice & Thomas, Numer. Math. 6 (1964) 185).  With i the
    interior rows and b = {0, Ny-1} the walls, M_bb = 0 and K_bb is
    diagonal, so eliminating the walls leaves the Schur complement
    S = K_ii - K_ib K_bb^-1 K_bi = P diag(lam) P^-1.  Lifting P to
    V_f (wall rows -K_bb^-1 K_bi P) and adding the two wall unit vectors
    V_b gives V with (K - s M) V = W diag(lam - s, 1, 1), W = [M V_f, K V_b].

    The eigenvalues are real and <= 0; the two that vanish come from the
    kernel of K (the constant and (-1)^j) and are set to exactly 0.0.
    """

    def __init__(self, grid):
        Ny = grid.Ny
        D = dy_matrix(grid)
        mask = np.ones(Ny)
        mask[0] = mask[-1] = 0.0
        K = D @ (mask[:, None] * D)
        walls = [0, Ny - 1]
        kbb = np.diag(K)[walls]
        lift = -K[walls, 1:-1] / kbb[:, None]  # -K_bb^-1 K_bi
        S = K[1:-1, 1:-1] + K[1:-1][:, walls] @ lift
        lam, P = np.linalg.eig(S)
        scale = np.abs(lam).max()
        tol = Ny * np.finfo(float).eps * scale
        if np.iscomplexobj(lam):
            if np.abs(lam.imag).max() > tol:
                raise np.linalg.LinAlgError(
                    "projection pencil has complex eigenvalues on this grid")
            lam, P = lam.real, P.real
        if lam.max() > tol:
            raise np.linalg.LinAlgError(
                "projection pencil has a positive eigenvalue on this grid")
        kernel = np.argsort(np.abs(lam))[:2]
        if np.abs(lam[kernel]).max() > tol:
            raise np.linalg.LinAlgError(
                "projection pencil lacks its two-dimensional kernel on this grid")
        lam[kernel] = 0.0
        V = np.zeros((Ny, Ny))
        V[1:-1, :-2] = P
        V[walls, :-2] = lift @ P
        V[walls, [Ny - 2, Ny - 1]] = 1.0
        W = mask[:, None] * V
        W[:, -2:] = K[:, walls]
        Winv = np.linalg.inv(W)
        self.lam = lam
        self.mask = mask
        #: maps stacked [i xi f1 | f2] rows to eigen-coefficients of q
        self.gather = np.vstack([Winv.T, (Winv @ D).T])
        #: maps eigen-coefficients to [q | eps^2 c2]
        self.spread = np.hstack([V.T, (mask[:, None] * (D @ V)).T])


_EIGENBASES: dict = {}


def _eigenbasis(grid) -> _Eigenbasis:
    """Pencil eigenbasis for grid.Ny, shared by every Nx, Lx and eps."""
    if grid.Ny not in _EIGENBASES:
        _EIGENBASES[grid.Ny] = _Eigenbasis(grid)
    return _EIGENBASES[grid.Ny]


class _Projector:
    """Inverse of the per-mode operator  -xi^2 M + eps^-2 D M D  for one
    (grid, eps), applied through the Ny-shared pencil eigenbasis.

    Per mode, A_m^-1 = V diag(eps^2 / (lam - eps^2 xi_m^2), eps^2, eps^2)
    W^-1, so a projection is two real matrix products over every
    strictly-positive frequency (the zero and Nyquist frequencies carry no
    x-derivative and are excluded; v is pinned at the mean mode instead).
    """

    def __init__(self, grid, eps: float):
        self.grid = grid
        self.eps = eps
        basis = _eigenbasis(grid)
        self.modes = np.arange(1, grid.Nx // 2)  # xi != 0, one per pair
        e2 = eps**2
        scale = np.full((self.modes.size, grid.Ny), e2)
        scale[:, :-2] = e2 / (basis.lam[None, :] - e2 * grid.xi[self.modes, None] ** 2)
        self._scale = np.vstack([scale, scale])  # real rows, then imaginary
        self._gather = basis.gather
        self._spread = np.hstack([basis.spread[:, :grid.Ny],
                                  basis.spread[:, grid.Ny:] / e2])
        #: c1 = i xi M q, over every row (q is zero off the modes)
        self._c1_mult = grid._dx_mult[:, None] * basis.mask[None, :]


_PROJECTORS: dict = {}


def _get_projector(grid, eps: float) -> _Projector:
    key = (grid.key, float(eps))
    if key not in _PROJECTORS:
        _PROJECTORS[key] = _Projector(grid, eps)
    return _PROJECTORS[key]


def _project_pair(grid, eps, f1: np.ndarray, f2: np.ndarray):
    """Return coefficient corrections (c1, c2) and the potential q such that
    the divergence of (f1 - c1, f2 - c2) vanishes at every positive
    frequency; the mean and Nyquist columns are untouched."""
    proj = _get_projector(grid, eps)
    nm, Ny = proj.modes.size, grid.Ny
    pos = slice(1, nm + 1)  # modes 1 .. Nx/2-1
    neg = slice(grid.Nx - 1, grid.Nx - nm - 1, -1)  # their partners -m
    xi = grid.xi[pos, None]
    # rows: real parts, then imaginary parts; columns: i xi f1, then f2.
    # Filled and reused in place: fresh temporaries of this size cost
    # page faults on every call.
    buf = np.empty((2 * nm, 2 * Ny))
    np.multiply(f1[pos].imag, -xi, out=buf[:nm, :Ny])
    np.multiply(f1[pos].real, xi, out=buf[nm:, :Ny])
    buf[:nm, Ny:] = f2[pos].real
    buf[nm:, Ny:] = f2[pos].imag
    z = buf @ proj._gather
    z *= proj._scale
    out = np.matmul(z, proj._spread, out=buf)  # columns: q, then c2
    q = np.zeros_like(f1)
    c2 = np.zeros_like(f2)
    for f, cols in ((q, slice(0, Ny)), (c2, slice(Ny, 2 * Ny))):
        f.real[pos] = out[:nm, cols]
        f.imag[pos] = out[nm:, cols]
        np.conj(f[pos], out=f[neg])
    return q * proj._c1_mult, c2, q


# ---------------------------------------------------------------------------
# Right-hand side, stepping, cleanup
# ---------------------------------------------------------------------------

def hns_rhs(state: HnsState, disable_nonlinear: bool = False,
            disable_pressure: bool = False, report: dict | None = None,
            out: np.ndarray | None = None):
    """Time derivative (du, dv, dut, dvt) of the state.

    ``disable_nonlinear`` drops the advection terms; ``disable_pressure``
    skips the projection (for linear single-mode checks where the state is
    deliberately not divergence-free).  Boundary rows of the accelerations
    are pinned, and the x-mean row of dvt is pinned.  The accelerations
    (dut, dvt) are written into ``out``, a (2, Nx, Ny) complex array, when
    one is given.  The linear terms act on the stacked pair (u, v) at once,
    and both advection terms come from the two-output form of ``multiply``.
    """
    g = state.grid
    eps = state.eps
    y = state.stack
    uv = y[:2]

    dx_uv, dy_uv = g.work("hns.dx", 2), g.work("hns.dy", 2)
    acc = y_diff(uv, g.dy, 2, out=out)
    np.multiply(real_view(uv), (eps**2 * g._dxx_mult)[:, None], out=real_view(dx_uv))
    acc += dx_uv
    acc -= y[2:]
    N2 = None
    if not disable_nonlinear:
        ux, vx = unstack(g, np.multiply(uv, g._dx_mult[:, None], out=dx_uv))
        uy, vy = unstack(g, y_diff(uv, g.dy, 1, out=dy_uv))
        N1, N2 = multiply((state.u, state.v), ((ux, uy), (vx, vy)))
        acc[0] -= N1.coeff
        acc[1] -= N2.coeff
    acc[..., 0] = acc[..., -1] = 0.0
    acc[1, 0] = 0.0  # the x-mean of v is pinned, not solved for

    if not np.all(np.isfinite(acc)):
        raise SolverAbort("non-finite acceleration", state)

    if not disable_pressure:
        c1, c2, q = _project_pair(g, eps, acc[0], acc[1])
        acc[0] -= c1
        acc[1] -= c2
        if report is not None:
            # mean-mode pressure profile is diagnostic only:
            # d_y p = -eps^2 N2 at the mean mode (v, Lv vanish there)
            if N2 is not None:
                prof = -eps**2 * cumulative_trapezoid(N2.coeff[0], g.dy)
                prof -= g.trapz_w @ prof / g.trapz_w.sum()
                q[0] = prof
            report["pressure"] = Field(g, q)
        if not np.all(np.isfinite(acc)):
            raise SolverAbort("non-finite acceleration", state)

    return (state.ut, state.vt) + unstack(g, acc)


def _pin_pair(y: np.ndarray) -> None:
    """Pin the walls of (u, v, ut, vt) and the x-mean rows of v and vt."""
    y[..., 0] = 0.0
    y[..., -1] = 0.0
    y[1::2, 0] = 0.0


def hns_step(state: HnsState, dt: float, disable_nonlinear: bool = False,
             disable_pressure: bool = False, check: bool = False,
             n_proj: int = N_PROJ) -> HnsState:
    """One RK4 step (`rk4_step`) of length dt on the stack (u, v, ut, vt),
    with periodic cleanup and energy guard.

    The step refuses dt outside (0, CFL_LIMIT * dy].  The default step
    suggested for production runs is CFL_FACTOR * dy: the projection is an
    orthogonal projection in the eps-weighted metric, so the fast pressure
    dynamics never enters the explicit update and the limit is set by the
    vertical damped-wave speed alone (the energy guard below watches for
    any configuration where that reasoning fails).  Every n_proj steps the
    state is re-projected onto the constraint and the energy guard runs.
    """
    if n_proj < 1:
        raise SolverAbort(f"n_proj must be >= 1, got {n_proj}", state)
    flags = dict(disable_nonlinear=disable_nonlinear,
                 disable_pressure=disable_pressure)

    def rhs(stage, k):
        return [f.coeff for f in hns_rhs(stage, out=k[2:], **flags)]

    out = state.with_stack(rk4_step(state, dt, rhs, _pin_pair),
                           t=state.t + dt, steps=state.steps + 1)

    if out.steps % n_proj == 0:
        if not disable_pressure:  # the new stack is not shared yet: clean in place
            out = divergence_cleanup(out, out=out.stack)
        e = out.energy()
        if out.energy_mark >= 0.0 and e > ENERGY_GROWTH_LIMIT * out.energy_mark:
            raise SolverAbort(
                f"energy grew {e / out.energy_mark:.1f}x since last check "
                f"(unstable configuration)", out)
        out = out.with_stack(out.stack, energy_mark=e)
    if check:
        out.check_invariants()
    return out


def divergence_cleanup(state: HnsState, report: dict | None = None,
                       out: np.ndarray | None = None) -> HnsState:
    """Project (u, v) and (ut, vt) back onto the discrete constraint.

    Solves the same per-mode operator as the stepper's projection with the
    current divergence as data and subtracts the masked weighted gradient,
    so the post-cleanup divergence is at solver precision.  The correction
    magnitude is logged and optionally reported.  The result is stacked in
    ``out``, a (4, Nx, Ny) complex array that may be the state's own stack,
    or else in a fresh array, leaving the input state as it was.
    """
    g = state.grid
    eps = state.eps
    y = state.stack
    new = np.empty_like(y) if out is None else out
    mags = {}
    for name, row in (("uv", 0), ("ut_vt", 2)):
        c1, c2, _ = _project_pair(g, eps, y[row], y[row + 1])
        np.subtract(y[row], c1, out=new[row])
        np.subtract(y[row + 1], c2, out=new[row + 1])
        mags[name] = float(np.sqrt(
            l2_norm(Field(g, c1)) ** 2 + l2_norm(Field(g, c2)) ** 2))
    new[1::2, 0] = 0.0  # the x-means of v and vt stay pinned
    log.debug("divergence cleanup at t=%.6f: |corr_uv|=%.3e |corr_ut|=%.3e",
              state.t, mags["uv"], mags["ut_vt"])
    if report is not None:
        report.update(mags)
    return state.with_stack(new)


def make_hns_data(u0: Field, p: GevreyParams, eps: float = 1.0,
                  u1: Field | None = None) -> HnsState:
    """Initial state with v recovered from the constraint and cleaned up.

    u0 must have zero vertical mean per x-mode (otherwise the recovered v
    cannot vanish at both walls).  The time-derivative data defaults to
    zero; when u1 is supplied its v-partner is recovered the same way, so
    the derivative pair is divergence-free too.
    """
    g = u0.grid
    scale = np.abs(u0.coeff).max()
    if scale > 0.0 and np.abs(mean_y(u0)).max() > 1e-8 * scale:
        raise ValueError(
            "u0 is not compatible: vertical mean must vanish per x-mode")
    # data must be analytic enough to carry the exponential weight
    apply_gevrey(u0, 0.0, p, +1)

    def pair(fu):
        fv = recover_v(fu)
        cv = fv.coeff.copy()
        cv[:, -1] = 0.0  # wall residual is quadrature roundoff; pin exactly
        cv[0] = 0.0
        return fu, Field(g, cv)

    fu0, fv0 = pair(u0)
    if u1 is None:
        fu1, fv1 = Field.zeros(g), Field.zeros(g)
    else:
        fu1, fv1 = pair(u1)
    state = HnsState(pin_walls(fu0), fv0, pin_walls(fu1), fv1, eps=eps)
    state = divergence_cleanup(state)
    state.check_invariants()
    return state
