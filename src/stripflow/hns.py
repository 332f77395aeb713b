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
operator, so it is enforced directly rather than solved for, by
``HnsState.pin`` with the walls.  The x-mean of the second equation then
only determines a pressure profile that never feeds back into u, so it is
not computed.

Storage and stepping: ``HnsState.stack`` holds the band rows m = 0..Nx/3
of (u, v, ut, vt) (see ``stepper.StackedState``), and ``hns_step``
advances it with the RK4 step shared with the limit system
(``stepper.rk4_step``).  The right-hand side applies d2/dy2 to the
stacked pair (u, v) as one dense product (``grid.dyy``), and takes both
advection terms, N1 = u u_x + v u_y and N2 = u v_x + v v_y, from the
advection form of ``multiply``, which differentiates the packed pair
u + iv itself, at one inverse and one forward transform call per
right-hand side, and projects the acceleration in place.  A step with
``check`` is a checkpoint: divergence cleanup, energy guard, invariants.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .gevrey import GevreyParams, apply_gevrey
from .grid import Field, dx, dy, dy_matrix, dyy, l2_norm, mean_y, multiply
from .prandtl import recover_v
from .stepper import SolverAbort, StackedState, rk4_step

log = logging.getLogger(__name__)

#: abort when the weighted energy grows by this factor between checks.
ENERGY_GROWTH_LIMIT = 10.0
#: largest relative divergence (`HnsState.divergence_rel`) that
#: `check_invariants` accepts
TOL_DIV = 1e-6


@dataclass(frozen=True)
class HnsState(StackedState):
    """Velocity pair, its time derivative, the anisotropy, and the clock,
    over a (4, Nx//3 + 1, Ny) stack of band rows (see `StackedState`)."""

    ROWS = ("u", "v", "ut", "vt")
    u: Field
    v: Field
    ut: Field
    vt: Field
    eps: float
    t: float = 0.0
    energy_mark: float = field(default=-1.0, repr=False)

    @classmethod
    def pin(cls, y):
        """Zero the walls and the x-means of the odd rows: v and vt, or vt of (ut, vt)."""
        super().pin(y)
        y[1::2, 0] = 0.0

    def _check_values(self):
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")

    def divergence_rel(self) -> float:
        """|dx u + dy v| relative to |dx u| + |dy v|."""
        ux, vy = dx(self.u).rows, dy(self.v).rows
        parts = Field(self.grid, np.stack([ux, vy, ux + vy]))
        norm_ux, norm_vy, norm_div = l2_norm(parts).tolist()
        scale = norm_ux + norm_vy
        if scale == 0.0:
            return 0.0
        return norm_div / scale

    def energy(self) -> float:
        """Graph (Lyapunov) energy of the damped-wave pair.

        The plain L2 size of (u, ut) is not phase-invariant: started from
        rest, |ut| legitimately grows by the oscillation frequency before
        decaying, which would false-trigger any growth guard.  The graph
        energy  eps^2|dx u|^2 + |dy u|^2 + |ut|^2  (plus the eps-weighted
        v terms) is monotone along the damped wave up to small-data terms.
        """
        e2 = self.eps**2
        q, qt = Field(self.grid, self.stack[:2]), Field(self.grid, self.stack[2:])
        (xu, xv), (yu, yv), (tu, tv) = (l2_norm(f).tolist() for f in (dx(q), dy(q), qt))

        def graph(x, y, t):
            return e2 * x ** 2 + y ** 2 + t ** 2

        return graph(xu, yu, tu) + e2 * graph(xv, yv, tv)

    def check_invariants(self):
        super().check_invariants()
        for name, f in (("v", self.v), ("vt", self.vt)):
            if np.any(f.rows[0] != 0.0):
                raise SolverAbort(f"x-mean of {name} not pinned", self)
        rel = self.divergence_rel()
        if rel > TOL_DIV:
            raise SolverAbort(
                f"divergence {rel:.3e} exceeds tolerance {TOL_DIV:.1e}",
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

    def __init__(self, Ny: int):
        D = dy_matrix(Ny)
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


@cache
def _eigenbasis(Ny: int) -> _Eigenbasis:
    """Pencil eigenbasis for Ny, shared by every Nx, Lx and eps."""
    return _Eigenbasis(Ny)


class _Projector:
    """Inverse of the per-mode operator  -xi^2 M + eps^-2 D M D  for one
    (grid, eps), applied through the Ny-shared pencil eigenbasis.

    Per mode, A_m^-1 = V diag(eps^2 / (lam - eps^2 xi_m^2), eps^2, eps^2)
    W^-1, so a projection is two real matrix products over the modes
    1..Nx/3 of the band (the zero frequency carries no x-derivative and is
    excluded; v is pinned at the mean mode instead).
    """

    def __init__(self, grid, eps: float):
        basis = _eigenbasis(grid.Ny)
        self.modes = np.arange(1, grid.band)  # xi != 0 in the band
        e2 = eps**2
        scale = np.full((self.modes.size, grid.Ny), e2)
        scale[:, :-2] = e2 / (basis.lam[None, :] - e2 * grid.band_xi[self.modes, None] ** 2)
        self._scale = np.vstack([scale, scale])  # real rows, then imaginary
        self._gather = basis.gather
        self._spread = np.hstack([basis.spread[:, :grid.Ny],
                                  basis.spread[:, grid.Ny:] / e2])
        #: xi M over the modes 1..Nx/3: c1 = i xi M q
        self._xi_mask = grid.band_xi[self.modes, None] * basis.mask[None, :]


@cache
def _get_projector(grid, eps: float) -> _Projector:
    """The projector of (grid, eps), built once; equal Grids share it."""
    return _Projector(grid, eps)


def _project_pair(grid, eps, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """f - c into `out` (which may be f itself) or a fresh array, where
    c = (i xi M q, eps^-2 M D q) is the masked weighted gradient of the
    potential q that makes the divergence of f - c vanish at every mode
    1..Nx/3; f = (f1, f2) is a pair of band rows, whose mean rows are kept.
    q is not stored: c1 folds into the subtraction, Re(f1 - c1) =
    Re f1 + xi M Im q and Im(f1 - c1) = Im f1 - xi M Re q."""
    proj = _get_projector(grid, eps)
    f1, f2 = f
    nm, Ny = proj.modes.size, grid.Ny
    pos = slice(1, nm + 1)  # modes 1 .. Nx/3
    xi = grid.band_xi[pos, None]
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
    np.matmul(z, proj._spread, out=buf)  # columns: q, then c2
    # f is all in buf by now, so out may be f
    if out is None:
        out = np.empty_like(f)
    if out is not f:
        out[:, 0] = f[:, 0]
    q_re, c2_re, q_im, c2_im = buf[:nm, :Ny], buf[:nm, Ny:], buf[nm:, :Ny], buf[nm:, Ny:]
    o1, o2 = out[0, pos], out[1, pos]
    np.subtract(f2[pos].real, c2_re, out=o2.real)
    np.subtract(f2[pos].imag, c2_im, out=o2.imag)
    q_im *= proj._xi_mask  # -Re c1
    q_re *= proj._xi_mask  # Im c1
    np.add(f1[pos].real, q_im, out=o1.real)
    np.subtract(f1[pos].imag, q_re, out=o1.imag)
    return out


# ---------------------------------------------------------------------------
# Right-hand side, stepping, cleanup
# ---------------------------------------------------------------------------

def hns_rhs(state: HnsState, linear: bool = False,
            out: np.ndarray | None = None) -> Field:
    """The accelerations (dut, dvt) of the state, one stacked band Field,
    written into ``out``, a (2, Nx//3 + 1, Ny) complex array, when one is
    given; aborts on non-finite values.

    The linear terms act on the stacked pair (u, v) at once, and both
    advection terms come from the advection form of ``multiply``.  The
    accelerations are pinned (``HnsState.pin``), then projected onto the
    constraint.  ``linear`` drops the advection and the projection (for
    linear single-mode checks where the state is deliberately not
    divergence-free).
    """
    g = state.grid
    eps = state.eps
    y = state.stack
    uv = Field(g, y[:2])

    # eps^2 (u_xx, v_xx), in the grid's "advection" work stack shared with
    # the limit system's advection
    dxx = g.work("advection", (2, g.band, g.Ny))
    acc = dyy(uv, out=out).rows
    np.multiply(uv.rows.view(np.float64), eps**2 * g._dxx_rows,
                out=dxx.view(np.float64))
    acc += dxx
    acc -= y[2:]
    if not linear:
        # (u u_x + v u_y, u v_x + v v_y)
        acc -= multiply(uv).rows
    state.pin(acc)  # the x-mean of v is pinned, not solved for

    # a complex value is finite when both of its parts are
    if not np.isfinite(acc.view(np.float64)).all():
        raise SolverAbort("non-finite acceleration", state)

    if not linear:
        _project_pair(g, eps, acc, out=acc)
        if not np.isfinite(acc.view(np.float64)).all():
            raise SolverAbort("non-finite acceleration", state)
    return Field(g, acc)


def hns_step(state: HnsState, dt: float, linear: bool = False,
             check: bool = False) -> HnsState:
    """One RK4 step (`rk4_step`) of length dt on the stack (u, v, ut, vt);
    ``linear`` as in `hns_rhs`.  dt must lie in (0, CFL_LIMIT * dy].  The
    projection is exact and idempotent but not orthogonal in the eps-weighted
    metric, so no step bound follows from it: CFL_FACTOR and CFL_LIMIT are
    measured (the linear-mode gate), and the energy guard watches.

    ``check`` makes the step a checkpoint: the new state is cleaned
    (`divergence_cleanup`, not when ``linear``), the energy guard compares
    its energy with the last checkpoint's, then `check_invariants` runs.
    """
    def accel(stage, out):
        hns_rhs(stage, linear=linear, out=out)

    out = state.with_stack(rk4_step(state, dt, accel), t=state.t + dt)
    if check:
        if not linear:  # the new stack is not shared yet: clean in place
            out = divergence_cleanup(out, out=out.stack)
        e = out.energy()
        if out.energy_mark >= 0.0 and e > ENERGY_GROWTH_LIMIT * out.energy_mark:
            raise SolverAbort(
                f"energy grew {e / out.energy_mark:.1f}x since last check "
                f"(unstable configuration)", out)
        out = out.with_stack(out.stack, energy_mark=e)
        out.check_invariants()
    return out


def divergence_cleanup(state: HnsState, report: dict | None = None,
                       out: np.ndarray | None = None) -> HnsState:
    """Project (u, v) and (ut, vt) back onto the discrete constraint.

    Solves the same per-mode operator as the stepper's projection with the
    current divergence as data and subtracts the masked weighted gradient,
    so the post-cleanup divergence is at solver precision, then pins.  The
    correction magnitude is logged and optionally reported.  The result is
    stacked in ``out``, a band stack shaped like the state's that may be its
    own (each pair is copied first to measure its correction), or else in
    a fresh array, leaving the input state as it was.
    """
    g = state.grid
    eps = state.eps
    y = state.stack
    new = np.empty_like(y) if out is None else out
    mags = {}
    for name, pair in (("uv", slice(0, 2)), ("ut_vt", slice(2, 4))):
        f = y[pair].copy()  # the pair as it was: `new` may be `y`
        _project_pair(g, eps, f, out=new[pair])
        n1, n2 = l2_norm(Field(g, f - new[pair])).tolist()
        mags[name] = float(np.sqrt(n1 ** 2 + n2 ** 2))
    state.pin(new)
    log.debug("divergence cleanup at t=%.6f: |corr_uv|=%.3e |corr_ut|=%.3e",
              state.t, mags["uv"], mags["ut_vt"])
    if report is not None:
        report.update(mags)
    return state.with_stack(new)


def make_hns_data(u0: Field, p: GevreyParams, eps: float = 1.0,
                  u1: Field | None = None) -> HnsState:
    """Initial state with v recovered from the constraint, pinned and cleaned up.

    u0 must have zero vertical mean per x-mode (otherwise the recovered v
    cannot vanish at both walls).  The time-derivative data defaults to
    zero; when u1 is supplied its v-partner is recovered the same way, so
    the derivative pair is divergence-free too.
    """
    g = u0.grid
    scale = np.abs(u0.rows).max()
    if scale > 0.0 and np.abs(mean_y(u0)).max() > 1e-8 * scale:
        raise ValueError(
            "u0 is not compatible: vertical mean must vanish per x-mode")
    # data must be analytic enough to carry the exponential weight
    apply_gevrey(u0, 0.0, p, +1)

    ut, vt = (Field.zeros(g),) * 2 if u1 is None else (u1, recover_v(u1))
    state = HnsState(u0, recover_v(u0), ut, vt, eps=eps)
    state.pin(state.stack)  # the stack is the state's own copy
    state = divergence_cleanup(state)
    state.check_invariants()
    return state
