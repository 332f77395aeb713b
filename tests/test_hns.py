"""Tests for the anisotropic constrained solver."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from stripflow import hns
from stripflow.grid import (
    Field,
    Grid,
    dx,
    dy,
    dy_matrix,
    dyy,
    l2_norm,
    multiply,
    to_physical,
    to_spectral,
)
from stripflow.gevrey import GevreyParams, make_gevrey_data
from stripflow.hns import (
    HnsState,
    _project_pair,
    divergence_cleanup,
    hns_rhs,
    hns_step,
    make_hns_data,
)
from stripflow.paley import get_bank
from stripflow.stepper import SolverAbort

P = GevreyParams(a=0.5)


def mu_discrete(Ny: int) -> float:
    h = 1.0 / (Ny - 1)
    return 2.0 * (1.0 - np.cos(2.0 * np.pi * h)) / h**2


def osc(mu: float, t: float) -> float:
    w = np.sqrt(mu - 0.25)
    return np.exp(-t / 2.0) * (np.cos(w * t) + np.sin(w * t) / (2.0 * w))


def xnodes(g: Grid) -> np.ndarray:
    return g.Lx * np.arange(g.Nx) / g.Nx


def zero_state(g: Grid, eps: float) -> HnsState:
    z = Field.zeros(g)
    return HnsState(z, z.copy(), z.copy(), z.copy(), eps=eps)


def gevrey_state(g: Grid, eps: float, amplitude=1e-3, m_max=8, with_ut=False):
    u0, _ = make_gevrey_data(g, P, amplitude=amplitude, m_max=m_max)
    u1 = None
    if with_ut:
        u1, _ = make_gevrey_data(g, P, amplitude=0.3 * amplitude, m_max=m_max)
    return make_hns_data(u0, P, eps=eps, u1=u1)


class TestStateInvariants:
    def test_eps_range_validated(self):
        g = Grid(16, 17)
        z = Field.zeros(g)
        with pytest.raises(ValueError, match="eps"):
            HnsState(z, z, z, z, eps=0.0)
        with pytest.raises(ValueError, match="eps"):
            HnsState(z, z, z, z, eps=1.5)

    def test_wall_violation_aborts(self):
        g = Grid(16, 17)
        c = np.zeros((g.band, g.Ny), dtype=complex)
        c[0, 0] = 1.0
        s = zero_state(g, 0.5)
        s = replace(s, u=Field(g, c))
        with pytest.raises(SolverAbort, match="wall"):
            s.check_invariants()

    @pytest.mark.parametrize("name", ["v", "vt"])
    def test_unpinned_x_mean_aborts(self, name):
        # an interior x-mean value of v or vt, with the walls pinned
        g = Grid(16, 17)
        c = np.zeros((g.band, g.Ny), dtype=complex)
        c[0, 3] = 1e-3
        s = replace(zero_state(g, 0.5), **{name: Field(g, c)})
        with pytest.raises(SolverAbort, match=f"x-mean of {name} not pinned"):
            s.check_invariants()

    def test_divergence_violation_aborts(self):
        g = Grid(32, 33)
        x = xnodes(g)
        u = to_spectral(g, np.sin(x)[:, None] * np.sin(np.pi * g.y)[None, :])
        c = u.rows.copy()
        c[:, 0] = c[:, -1] = 0.0
        s = zero_state(g, 0.5)
        s = replace(s, u=Field(g, c))  # v = 0: divergence is d_x u, far beyond tol
        with pytest.raises(SolverAbort, match="divergence"):
            s.check_invariants()


# The classical pressure route, kept here as an independent oracle for the
# stepper's exact projection (see TestPressureSolve::test_dual_route_agreement).

def _pivot(piv, state: HnsState):
    """Pass Thomas-sweep pivots through, aborting if one vanished (or is NaN)."""
    if not np.min(np.abs(piv)) > 0.0:
        raise SolverAbort("tridiagonal pivot vanished", state)
    return piv


def pressure_solve(state: HnsState, N1: Field, N2: Field,
                   Lu: Field, Lv: Field) -> Field:
    """Anisotropic Neumann pressure problem, one tridiagonal solve per mode.

    Solves (-xi^2 + eps^-2 d_yy) p = -(d_x N1 + d_y N2) + (d_x Lu + d_y Lv)
    with wall data d_y p = eps^2 d_yy v (one-sided), eliminated through a
    ghost node.  Modes with xi = 0 are singular up to constants: their
    solvability defect is subtracted, one node is pinned, and the result is
    gauged to zero vertical mean.
    """
    g = state.grid
    eps = state.eps
    Ny, h = g.Ny, g.dy
    T = 1.0 / (eps**2 * h**2)

    r = g.unfold((-dx(N1) - dy(N2) + dx(Lu) + dy(Lv)).rows)
    gy = eps**2 * g.unfold(dyy(state.v).rows)
    r[:, 0] += 2.0 * gy[:, 0] / (eps**2 * h)
    r[:, -1] -= 2.0 * gy[:, -1] / (eps**2 * h)

    p = np.zeros_like(r)
    w = g.trapz_w / g.trapz_w.sum()

    zero_xi = g.xi == 0.0
    run_xi = ~zero_xi
    if run_xi.any():
        idx = np.where(run_xi)[0]
        nm = idx.size
        a = np.full((nm, Ny), T, dtype=float)       # sub-diagonal
        b = np.full((nm, Ny), -2.0 * T, dtype=float)
        c = np.full((nm, Ny), T, dtype=float)       # super-diagonal
        c[:, 0] = 2.0 * T
        a[:, -1] = 2.0 * T
        b -= (g.xi[idx] ** 2)[:, None]
        d = r[idx].copy()
        # Thomas sweeps, vectorized across the modes
        cp = np.empty_like(b)
        dp = np.empty_like(d)
        piv = _pivot(b[:, 0], state)
        cp[:, 0] = c[:, 0] / piv
        dp[:, 0] = d[:, 0] / piv
        for j in range(1, Ny):
            piv = _pivot(b[:, j] - a[:, j] * cp[:, j - 1], state)
            cp[:, j] = c[:, j] / piv
            dp[:, j] = (d[:, j] - a[:, j] * dp[:, j - 1]) / piv
        sol = np.empty_like(d)
        sol[:, -1] = dp[:, -1]
        for j in range(Ny - 2, -1, -1):
            sol[:, j] = dp[:, j] - cp[:, j] * sol[:, j + 1]
        p[idx] = sol

    for m in np.where(zero_xi)[0]:
        d = r[m].copy()
        d -= w @ d  # solvability defect of the pure-Neumann problem
        # pin p[0] = 0, solve rows 1..Ny-1 (row 0 is implied by the defect
        # subtraction: the trapezoid weights are the left nullspace)
        sub = np.full(Ny - 1, T)
        sup = np.full(Ny - 1, T)
        dia = np.full(Ny - 1, -2.0 * T)
        sub[-1] = 2.0 * T
        rhs_m = d[1:].copy()
        cp = np.empty(Ny - 1, dtype=complex)
        dp = np.empty(Ny - 1, dtype=complex)
        piv = dia[0]
        cp[0] = sup[0] / piv
        dp[0] = rhs_m[0] / piv
        for j in range(1, Ny - 1):
            piv = _pivot(dia[j] - sub[j] * cp[j - 1], state)
            cp[j] = sup[j] / piv if j < Ny - 2 else 0.0
            dp[j] = (rhs_m[j] - sub[j] * dp[j - 1]) / piv
        sol = np.empty(Ny - 1, dtype=complex)
        sol[-1] = dp[-1]
        for j in range(Ny - 3, -1, -1):
            sol[j] = dp[j] - cp[j] * sol[j + 1]
        p[m, 0] = 0.0
        p[m, 1:] = sol
        p[m] -= w @ p[m]  # zero-mean gauge

    return Field(g, g.fold(p))


class TestPressureSolve:
    def test_zero_inputs_give_zero(self):
        g = Grid(16, 17)
        s = zero_state(g, 0.3)
        z = Field.zeros(g)
        p = pressure_solve(s, z, z, z, z)
        assert np.abs(p.rows).max() == 0.0

    @pytest.mark.parametrize("eps", [1.0, 0.3])
    def test_manufactured_cospy_mode(self, eps):
        # p* = cos(pi y) cos(x): homogeneous Neumann walls;
        # r = (-1 - pi^2/eps^2) p*.  Feed r through N1 = -int r dx.
        errs = []
        for Ny in (33, 65):
            g = Grid(16, Ny)
            x = xnodes(g)
            fac = -1.0 - np.pi**2 / eps**2
            pstar = np.cos(x)[:, None] * np.cos(np.pi * g.y)[None, :]
            N1 = to_spectral(g, -fac * np.sin(x)[:, None]
                             * np.cos(np.pi * g.y)[None, :])
            z = Field.zeros(g)
            s = zero_state(g, eps)
            p = pressure_solve(s, N1, z, z, z)
            errs.append(np.abs(to_physical(p) - pstar).max())
        assert 3.0 < errs[0] / errs[1] < 5.5

    def test_mean_mode_analytic_inversion(self):
        # eps = 1, xi = 0, r = cos(2 pi y) -> p = -cos(2 pi y)/(4 pi^2)
        errs = []
        for Ny in (33, 65):
            g = Grid(16, Ny)
            # feed r through N2 = -sin(2 pi y)/(2 pi): -d_y N2 = cos + O(dy^2)
            prof = -np.sin(2 * np.pi * g.y) / (2 * np.pi)
            c = np.zeros((g.band, g.Ny), dtype=complex)
            c[0] = prof
            z = Field.zeros(g)
            s = zero_state(g, 1.0)
            p = pressure_solve(s, z, Field(g, c), z, z)
            expect = -np.cos(2 * np.pi * g.y) / (4 * np.pi**2)
            errs.append(np.abs(p.rows[0].real - expect).max())
            # gauge: zero vertical mean
            assert abs(g.trapz_w @ p.rows[0]) < 1e-14
        assert 3.0 < errs[0] / errs[1] < 5.5

    def test_dual_route_agreement(self):
        # the stepping projection's multiplier and the Neumann solve agree
        # on the interior at first order in dy (wall treatment differs),
        # and to a few percent in absolute terms
        diffs = []
        for Ny in (33, 65, 129):
            g = Grid(32, Ny)
            x = xnodes(g)
            h = g.y**2 * (1 - g.y) ** 2
            hp = 2 * g.y * (1 - g.y) ** 2 - 2 * g.y**2 * (1 - g.y)
            u = to_spectral(g, np.sin(x)[:, None] * hp[None, :])
            v = to_spectral(g, -np.cos(x)[:, None] * h[None, :])
            s = HnsState(u, v, Field.zeros(g), Field.zeros(g), eps=0.7)
            e2 = s.eps**2
            Lu = e2 * dx(dx(u)) + dyy(u)
            Lv = e2 * dx(dx(v)) + dyy(v)
            N1 = multiply(u, dx(u)) + multiply(v, dy(u))
            N2 = multiply(u, dx(v)) + multiply(v, dy(v))
            p_tri = pressure_solve(s, N1, N2, Lu, Lv)
            # the projection's potential of the pinned acceleration (ut = 0),
            # and at the mean mode, where it is zero, the profile of
            # d_y p = -eps^2 N2 (v and Lv vanish there) with zero mean
            acc = np.stack([(Lu - N1).rows, (Lv - N2).rows])
            HnsState.pin(acc)
            c1 = acc[0] - _project_pair(g, s.eps, acc.copy())[0]
            q = np.zeros_like(c1)
            q[1:, 1:-1] = c1[1:, 1:-1] / g._dx_rows[1:]  # c1 = i xi M q
            prof = -e2 * cumulative_trapezoid(N2.rows[0], dx=g.dy, initial=0)
            prof -= g.trapz_w @ prof / g.trapz_w.sum()
            q[0] = prof
            p_proj = Field(g, q)
            scale = np.abs(p_tri.rows).max()
            diffs.append(
                np.abs(p_tri.rows[:, 2:-2] - p_proj.rows[:, 2:-2]).max())
            assert diffs[-1] < 0.10 * scale
        assert 1.6 < diffs[0] / diffs[1] < 2.4
        assert 1.6 < diffs[1] / diffs[2] < 2.4


def random_pair(g: Grid, seed: int):
    """Band rows (m = 0..Nx/3) of two real random fields with pinned wall rows."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        c = np.fft.fft(rng.standard_normal((g.Nx, g.Ny)), axis=0, norm="forward")
        c = c[:g.band].copy()
        c[:, 0] = c[:, -1] = 0.0
        out.append(c)
    return out


class TestProjector:
    GRIDS = [(32, 33), (128, 65)]

    @pytest.mark.parametrize("shape", GRIDS)
    @pytest.mark.parametrize("eps", [1.0, 0.1, 0.0125])
    def test_matches_dense_per_mode_solve(self, shape, eps):
        g = Grid(*shape)
        f1, f2 = random_pair(g, seed=3)
        f = np.stack([f1, f2])
        c1, c2 = f - _project_pair(g, eps, f.copy())
        D = dy_matrix(g.Ny)
        mask = np.ones(g.Ny)
        mask[0] = mask[-1] = 0.0
        K = D @ (mask[:, None] * D)
        for m in range(1, g.band):
            xi = g.xi[m]
            A = K / eps**2 - xi**2 * np.diag(mask)
            qm = np.linalg.solve(A, 1j * xi * f1[m] + D @ f2[m])
            scale = np.abs(qm).max()
            # q on the interior rows, where c1 = i xi q; its wall rows are
            # checked through c2 alone
            assert np.abs(c1[m, 1:-1] / (1j * xi) - qm[1:-1]).max() <= 1e-9 * scale
            assert np.abs(c1[m] - 1j * xi * mask * qm).max() <= 1e-9 * abs(xi) * scale
            c2m = mask * (D @ qm) / eps**2
            assert np.abs(c2[m] - c2m).max() <= 1e-9 * np.abs(c2m).max()
        for c in (c1, c2):
            assert c.shape == (g.band, g.Ny) and np.all(c[0] == 0.0)

    @pytest.mark.parametrize("shape", GRIDS)
    @pytest.mark.parametrize("eps", [1.0, 0.1, 0.0125])
    def test_divergence_removed(self, shape, eps):
        g = Grid(*shape)
        f1, f2 = random_pair(g, seed=4)
        p1, p2 = _project_pair(g, eps, np.stack([f1, f2]))
        D = dy_matrix(g.Ny)
        ms = np.arange(1, g.band)
        before = f1[ms] * g._dx_rows[ms] + f2[ms] @ D.T
        after = p1[ms] * g._dx_rows[ms] + p2[ms] @ D.T
        assert np.abs(after).max() <= 1e-10 * np.abs(before).max()

    @pytest.mark.parametrize("shape", GRIDS)
    @pytest.mark.parametrize("eps", [1.0, 0.1, 0.0125])
    def test_in_place_equals_out_of_place(self, shape, eps):
        # the pair is projected in place and returned: the same bits as the
        # projection of a copy, and the mean rows (m = 0, not zero here)
        # stay as given
        g = Grid(*shape)
        f = np.stack(random_pair(g, seed=6))
        before = f.copy()
        expect = _project_pair(g, eps, f.copy())
        got = _project_pair(g, eps, f)
        assert got is f
        assert got.tobytes() == expect.tobytes()
        assert got[:, 1:].tobytes() != before[:, 1:].tobytes()  # it projected
        assert np.any(before[:, 0] != 0.0)
        assert got[:, 0].tobytes() == before[:, 0].tobytes()

    @pytest.mark.parametrize("shape", GRIDS)
    @pytest.mark.parametrize("pair", [slice(0, 2), slice(2, 4)], ids=["uv", "ut_vt"])
    def test_pair_viewed_in_a_stack(self, shape, pair):
        # divergence_cleanup and rk4_step's slope buffer hand over a pair
        # that is a view into a (4, band, Ny) stack: it projects to the bits
        # of a contiguous copy, and the other two rows stay as they were
        g = Grid(*shape)
        stack = np.concatenate([random_pair(g, seed=8), random_pair(g, seed=9)])
        before = stack.copy()
        expect = _project_pair(g, 0.1, stack[pair].copy())
        got = _project_pair(g, 0.1, stack[pair])
        assert np.shares_memory(got, stack)
        assert stack[pair].tobytes() == expect.tobytes()
        rest = np.ones(4, bool)
        rest[pair] = False
        assert stack[rest].tobytes() == before[rest].tobytes()

    @pytest.mark.parametrize("Nx", [4, 6, 16, 128])  # Nx = 4: one mode
    @pytest.mark.parametrize("Ny", [9, 10, 33, 64, 65])
    @pytest.mark.parametrize("eps", [1.0, 0.1, 0.0125, 1e-3])
    def test_idempotent_and_divergence_free_across_shapes(self, Nx, Ny, eps):
        # Both residuals grow as eps^-2 in units of machine epsilon u.  Over
        # these 80 cases and random pairs of seeds 0-7 the largest constants
        # were 128 (idempotence, relative to |Pf|) and 58 (the divergence by
        # the discrete D, relative to that of f): 2.0e-8 and 6.6e-9 at
        # eps = 1e-3, Nx = 4, Ny = 65 for seed 7.  The bounds allow about 3
        # times those constants.
        g = Grid(Nx, Ny)
        f = np.stack(random_pair(g, seed=7))
        pf = _project_pair(g, eps, f.copy())
        ppf = _project_pair(g, eps, pf.copy())
        u = np.finfo(float).eps / eps**2
        assert np.abs(ppf - pf).max() <= 400 * u * np.abs(pf).max()
        D, ms = dy_matrix(Ny), slice(1, g.band)

        def div(p):
            return p[0, ms] * g._dx_rows[ms] + p[1, ms] @ D.T

        assert np.abs(div(pf)).max() <= 180 * u * np.abs(div(f)).max()

    def test_eigenbasis_shared_across_eps_and_nx(self, monkeypatch):
        hns._eigenbasis.cache_clear()
        hns._get_projector.cache_clear()
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
        for g, eps in ((Grid(32, 33), 0.1), (Grid(32, 33), 0.05), (Grid(16, 33), 0.1)):
            f1, f2 = random_pair(g, seed=5)
            _project_pair(g, eps, np.stack([f1, f2]))
        assert calls == [(31, 31)]
        assert hns._get_projector.cache_info().currsize == 3

    @pytest.mark.parametrize("cached, args", [(get_bank, ()), (hns._get_projector, (0.1,))],
                             ids=["get_bank", "_get_projector"])
    def test_cache_serves_an_equal_grid(self, cached, args):
        # set-up may warm these caches with Grid objects of its own
        cached.cache_clear()
        first = cached(Grid(32, 33), *args)
        assert cached(Grid(32, 33), *args) is first
        assert cached.cache_info().misses == 1

    def test_kernel_pair_is_exactly_zero(self):
        lam = hns._eigenbasis(33).lam
        assert np.sum(lam == 0.0) == 2
        assert np.all(lam <= 0.0)
        assert np.sort(np.abs(lam))[2] > 1.0

    @pytest.mark.parametrize("fault, match", [
        ("complex", "complex"), ("positive", "positive"), ("no_kernel", "kernel"),
    ])
    def test_bad_spectrum_raises(self, monkeypatch, fault, match):
        eig = np.linalg.eig

        def broken(a):
            lam, P = eig(a)
            order = np.argsort(np.abs(lam))
            if fault == "complex":
                lam, P = lam.astype(complex), P.astype(complex)
                lam[order[5]] += 1j
            elif fault == "positive":
                lam[order[5]] = 1.0
            else:
                lam[order[:2]] = -1.0
            return lam, P

        monkeypatch.setattr(np.linalg, "eig", broken)
        with pytest.raises(np.linalg.LinAlgError, match=match):
            hns._Eigenbasis(17)


class TestRhs:
    def test_zero_state(self):
        g = Grid(16, 17)
        s = zero_state(g, 0.5)
        assert np.abs(hns_rhs(s).rows).max() == 0.0

    def test_linear_mean_mode_plugin(self):
        g = Grid(8, 65)
        A, B = 0.7, -0.3
        cu = np.zeros((g.band, g.Ny), dtype=complex)
        cu[0] = A * np.sin(2 * np.pi * g.y)
        ct = np.zeros_like(cu)
        ct[0] = B * np.sin(2 * np.pi * g.y)
        s = zero_state(g, 0.5)
        s = replace(s, u=Field(g, cu), ut=Field(g, ct))
        dut, dvt = hns_rhs(s).rows
        assert np.abs(dvt).max() == 0.0
        mu_d = mu_discrete(g.Ny)
        expect = (-mu_d * A - B) * np.sin(2 * np.pi * g.y[1:-1])
        got = dut[0, 1:-1].real
        assert np.abs(got - expect).max() < 20 * np.finfo(float).eps / g.dy**2

    @pytest.mark.parametrize("eps", [1.0, 0.1, 0.0125])
    def test_acceleration_divergence_vanishes(self, eps):
        g = Grid(64, 33)
        s = gevrey_state(g, eps, with_ut=True)
        dut, dvt = (Field(g, rows) for rows in hns_rhs(s).rows)
        num = l2_norm(dx(dut) + dy(dvt))
        den = l2_norm(dx(dut)) + l2_norm(dy(dvt))
        assert num <= 1e-8 * den

    def test_nonfinite_aborts(self):
        g = Grid(16, 17)
        s = zero_state(g, 0.5)
        c = np.zeros((g.band, g.Ny), dtype=complex)
        c[1, 5] = np.inf
        s = replace(s, ut=Field(g, c))
        with pytest.raises(SolverAbort, match="non-finite"):
            hns_rhs(s)


class TestStep:
    def test_zero_fixed_point(self):
        g = Grid(16, 17)
        s = hns_step(zero_state(g, 0.5), 1e-3)
        for f in (s.u, s.v, s.ut, s.vt):
            assert np.abs(f.rows).max() == 0.0
        assert s.t == pytest.approx(1e-3)

    def run_linear_oscillator(self, eps, dt, T=1.0, Ny=65):
        g = Grid(8, Ny)
        x = xnodes(g)
        prof = np.sin(2 * np.pi * g.y)
        prof[0] = prof[-1] = 0.0
        u0 = to_spectral(g, np.sin(x)[:, None] * prof[None, :])
        s = zero_state(g, eps)
        s = replace(s, u=u0)
        n = int(round(T / dt))
        for _ in range(n):
            s = hns_step(s, dt, linear=True)
        j = Ny // 4
        return s.u.rows[1, j].imag / (-0.5 * prof[j])  # sin(x) mode, m=1

    @pytest.mark.parametrize("eps", [0.5, 1.0])
    def test_oscillator_closed_form(self, eps):
        # pressureless linear mode: mu = mu_d + eps^2 xi^2 with xi = 1
        Ny = 65
        mu = mu_discrete(Ny) + eps**2 * 1.0
        got = self.run_linear_oscillator(eps, 1e-3, Ny=Ny)
        expect = osc(mu, 1.0)
        assert abs(got - expect) / abs(expect) <= 1e-6

    def test_fourth_order_in_dt(self):
        Ny = 65
        mu = mu_discrete(Ny) + 0.25
        expect = osc(mu, 1.0)
        e1 = abs(self.run_linear_oscillator(0.5, 1e-3, Ny=Ny) - expect)
        e2 = abs(self.run_linear_oscillator(0.5, 5e-4, Ny=Ny) - expect)
        assert 10.0 <= e1 / e2 <= 22.0

    def test_cfl_abort(self):
        g = Grid(16, 17)
        s = gevrey_state(g, 0.5, m_max=4)
        with pytest.raises(SolverAbort, match="CFL"):
            hns_step(s, 10.0 * g.dy)
        with pytest.raises(SolverAbort, match="positive"):
            hns_step(s, -1.0)

    def test_stage_abort_carries_step_input(self, monkeypatch):
        g = Grid(16, 17)
        s = replace(gevrey_state(g, 0.5, m_max=4), t=0.375)
        calls = []

        def failing_rhs(state, **kw):
            calls.append(state)
            if len(calls) == 3:
                raise SolverAbort("synthetic failure", state)
            return hns_rhs(state, **kw)

        monkeypatch.setattr(hns, "hns_rhs", failing_rhs)
        coeffs = [f.rows.copy() for f in (s.u, s.v, s.ut, s.vt)]
        with pytest.raises(SolverAbort, match="stage 3: synthetic failure") as info:
            hns_step(s, 0.25 * g.dy)
        got = info.value.state
        assert got.t == 0.375
        for f, c in zip((got.u, got.v, got.ut, got.vt), coeffs):
            assert np.array_equal(f.rows, c)
        assert not np.array_equal(calls[2].u.rows, coeffs[0])  # a real stage

    def test_energy_guard(self):
        # each check compares the energy after the cleanup with the mark of
        # the last check: a pass moves the mark, growth beyond
        # ENERGY_GROWTH_LIMIT times it aborts with the post-step state
        g = Grid(16, 17)
        s = replace(gevrey_state(g, 0.5, m_max=4), t=0.375)
        dt = 0.25 * g.dy
        e0 = s.energy()
        ok = hns_step(replace(s, energy_mark=e0), dt, check=True)
        assert ok.energy() <= hns.ENERGY_GROWTH_LIMIT * e0
        assert ok.energy_mark == ok.energy() != e0
        tiny = 1e-6 * e0
        with pytest.raises(SolverAbort) as info:
            hns_step(replace(s, energy_mark=tiny), dt, check=True)
        err = info.value
        assert err.reason.startswith("energy grew") and err.stage is None
        assert err.state.t == 0.375 + dt
        assert err.state.energy() > hns.ENERGY_GROWTH_LIMIT * tiny
        assert np.array_equal(err.state.stack, ok.stack)

    def test_returned_states_keep_their_bytes(self):
        # samples keep returned states; stage buffers are reused, so later
        # steps and a cleanup must write only into fresh arrays
        g = Grid(16, 17)
        dt = 0.25 * g.dy
        s = hns_step(gevrey_state(g, 0.5, m_max=4), dt)
        arrays = (s.stack,) + tuple(f.rows for f in s.fields)
        held = [a.tobytes() for a in arrays]
        later = s
        for step in range(2, 7):
            later = hns_step(later, dt, check=step % 3 == 0)  # cleanups at steps 3 and 6
        assert later.t == 6 * dt
        assert [a.tobytes() for a in arrays] == held

    @pytest.mark.parametrize("eps", [1.0, 0.1, 0.0125])
    def test_full_physics_short_run(self, eps):
        # divergence and walls hold through steps and cleanups; the
        # graph energy decays once the initial transient has passed
        g = Grid(32, 33)
        s = gevrey_state(g, eps, amplitude=1e-3, m_max=6)
        e0 = s.energy()
        dt = 0.25 * g.dy
        for k in range(120):
            s = hns_step(s, dt, check=(k % 30 == 29))
        assert s.divergence_rel() <= 1e-6
        assert s.energy() <= e0
        for f in (s.u, s.v, s.ut, s.vt):
            assert np.abs(f.rows[:, 0]).max() == 0.0
            assert np.abs(f.rows[:, -1]).max() == 0.0


class TestCleanup:
    def test_clean_state_untouched(self):
        g = Grid(32, 33)
        s = gevrey_state(g, 0.5)
        rep = {}
        s2 = divergence_cleanup(s, report=rep)
        scale = max(l2_norm(s.u), 1e-30)
        assert rep["uv"] <= 1e-12 * scale
        assert np.abs(s2.u.rows - s.u.rows).max() <= 1e-14 * scale

    def test_injected_divergence_removed(self):
        g = Grid(32, 33)
        s = gevrey_state(g, 0.5)
        x = xnodes(g)
        bump = 1e-4 * np.sin(2 * x)[:, None] * np.sin(np.pi * g.y)[None, :]
        bump[:, 0] = bump[:, -1] = 0.0
        c = s.u.rows + to_spectral(g, bump).rows
        dirty = HnsState(Field(g, c), s.v, s.ut, s.vt, eps=s.eps)
        pre = l2_norm(dx(dirty.u) + dy(dirty.v))
        cleaned = divergence_cleanup(dirty)
        post = l2_norm(dx(cleaned.u) + dy(cleaned.v))
        assert post <= 1e-2 * pre

    def test_in_place_cleanup_reports_as_out_of_place(self):
        # cleaning in place (as `hns_step` does) overwrites the pair that
        # the corrections are measured against: the report must not change
        g = Grid(32, 33)
        s = gevrey_state(g, 0.5, with_ut=True)
        x = xnodes(g)
        bump = to_spectral(g, 1e-4 * np.sin(2 * x)[:, None]
                           * np.sin(np.pi * g.y)[None, :]).rows
        bump[:, 0] = bump[:, -1] = 0.0
        dirty = HnsState(Field(g, s.u.rows + bump), s.v, Field(g, s.ut.rows + bump), s.vt,
                         eps=s.eps)
        fresh_report, in_place_report = {}, {}
        fresh = divergence_cleanup(dirty, report=fresh_report)
        stack = dirty.stack.copy()
        cleaned = divergence_cleanup(dirty.with_stack(stack), report=in_place_report,
                                     out=stack)
        assert cleaned.stack is stack
        assert stack.tobytes() == fresh.stack.tobytes()
        assert in_place_report == fresh_report
        assert fresh_report["uv"] > 1e-6 and fresh_report["ut_vt"] > 1e-6

    def test_idempotent(self):
        # the projection is idempotent at every eps (it is not orthogonal
        # in the eps-weighted metric: see `hns_step`)
        g = Grid(32, 33)
        for eps in (0.5, 0.1, 0.0125):
            once = divergence_cleanup(gevrey_state(g, eps))
            twice = divergence_cleanup(once)
            scale = max(np.abs(once.u.rows).max(), 1e-30)
            assert np.abs(twice.u.rows - once.u.rows).max() <= 1e-10 * scale, eps
            assert np.abs(twice.v.rows - once.v.rows).max() <= 1e-10 * scale, eps


class TestMakeData:
    def test_zero_data(self):
        g = Grid(16, 17)
        s = make_hns_data(Field.zeros(g), P, eps=0.5)
        for f in (s.u, s.v, s.ut, s.vt):
            assert np.abs(f.rows).max() == 0.0

    def test_gevrey_band_divergence(self):
        g = Grid(64, 33)
        u0, _ = make_gevrey_data(g, P, amplitude=1e-3, m_max=8)
        s = make_hns_data(u0, P, eps=0.25)
        assert s.divergence_rel() <= 1e-10
        assert np.abs(s.v.rows[:, -1]).max() == 0.0
        assert np.abs(s.v.rows[:, 0]).max() == 0.0

    def test_derivative_pair_divergence(self):
        g = Grid(32, 33)
        u0, _ = make_gevrey_data(g, P, amplitude=1e-3, m_max=5)
        u1, _ = make_gevrey_data(g, P, amplitude=1e-4, m_max=4)
        s = make_hns_data(u0, P, eps=0.5, u1=u1)
        num = l2_norm(dx(s.ut) + dy(s.vt))
        den = l2_norm(dx(s.ut)) + l2_norm(dy(s.vt))
        assert num <= 1e-10 * den

    def test_incompatible_data_rejected(self):
        g = Grid(32, 33)
        prof = np.sin(np.pi * g.y)
        prof[0] = prof[-1] = 0.0
        x = xnodes(g)
        u0 = to_spectral(g, np.cos(x)[:, None] * prof[None, :])
        with pytest.raises(ValueError, match="vertical mean"):
            make_hns_data(u0, P, eps=0.5)


class TestHydrostaticLimit:
    def test_u_converges_to_hydrostatic_solver(self):
        # the quantified version is in the acceptance tests; here a cheap
        # two-member check that halving eps cuts the difference
        from stripflow.prandtl import PrandtlState, prandtl_step

        g = Grid(32, 33)
        u0, u1 = make_gevrey_data(g, P, amplitude=1e-3, m_max=5)
        T = 1.0
        dt = 0.25 * g.dy
        n = int(round(T / dt))
        dt = T / n
        ps = PrandtlState(u0, u1)
        ref = []
        for i in range(n):
            ps = prandtl_step(ps, dt)
            if (i + 1) % 8 == 0:
                ref.append(ps.u.rows.copy())
        sups = []
        for eps in (0.2, 0.1):
            s = make_hns_data(u0, P, eps=eps)
            worst = 0.0
            j = 0
            for i in range(n):
                s = hns_step(s, dt)
                if (i + 1) % 8 == 0:
                    worst = max(worst, l2_norm(Field(g, s.u.rows - ref[j])))
                    j += 1
            sups.append(worst)
        assert sups[1] < 0.5 * sups[0]


class TestCallBudget:
    #: Python and C calls that `sys.setprofile` saw in one warm hns_step at
    #: 128x65 before the solvers took stacked Fields (Python 3.11, numpy
    #: 2.4); numpy's own FFT wrappers are part of the count, so it depends
    #: on numpy
    BEFORE = 555
    #: the count reached, and the margin allowed above it: 471 with stacked
    #: Fields, 467 since the one `linear` switch replaced two flags (466
    #: measured since), 434 since `dy` and `dyy` are dense products (426
    #: without the check of `y_dense` that `out` does not overlap its input),
    #: 366 since the advection form of `multiply` differentiates the
    #: packed pair, and 283 since the projection writes f - c in place
    #: (no `acc -= c` pass, no zeroed q or c), `_split_pair` reads its
    #: mirror by slices and the packed pair takes one inverse call
    REACHED = 283
    MARGIN = 30

    def test_step_stays_within_its_call_budget(self):
        import sys

        g = Grid(128, 65)
        u0, _ = make_gevrey_data(g, GevreyParams(), amplitude=1e-4, m_max=4)
        s = make_hns_data(u0, GevreyParams(), eps=0.1)
        dt = 0.25 * g.dy
        for _ in range(3):  # warm the work buffers; no cleanup step
            s = hns_step(s, dt)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event in ("call", "c_call")

        sys.setprofile(count)
        try:
            hns_step(s, dt)
        finally:
            sys.setprofile(None)
        assert calls <= self.REACHED + self.MARGIN < self.BEFORE, calls
