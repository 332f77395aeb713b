"""Tests for the hydrostatic damped-wave solver."""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from stripflow.grid import (
    Field,
    Grid,
    dx,
    dy,
    dyy,
    l2_norm,
    mean_y,
    multiply,
    to_physical,
    to_spectral,
    y_density,
)
from stripflow.gevrey import GevreyParams, apply_gevrey, make_gevrey_data
from stripflow import grid, paley, prandtl
from stripflow.prandtl import (
    PrandtlState,
    prandtl_rhs,
    prandtl_step,
    recover_v,
)
from stripflow.stepper import SolverAbort, rk4_step


def mu_discrete(Ny: int) -> float:
    """Eigenvalue of the pinned centered second difference on sin(2 pi y)."""
    h = 1.0 / (Ny - 1)
    return 2.0 * (1.0 - np.cos(2.0 * np.pi * h)) / h**2


def osc(mu: float, t: np.ndarray):
    """Closed form of A'' + A' + mu A = 0 with A(0)=1, A'(0)=0."""
    w = np.sqrt(mu - 0.25)
    return np.exp(-t / 2.0) * (np.cos(w * t) + np.sin(w * t) / (2.0 * w))


def xnodes(g: Grid) -> np.ndarray:
    return g.Lx * np.arange(g.Nx) / g.Nx


def pressure_gradient(u: Field) -> Field:
    """The d_x p of the pressure law of `prandtl_rhs`, read back from its
    acceleration at ut = 0 as dyy u - N - dut on the interior rows (to
    roundoff); the wall rows are zero."""
    g = u.grid
    dut = prandtl_rhs(PrandtlState(u, Field.zeros(g))).rows
    pg = np.zeros_like(dut)
    pg[:, 1:-1] = (grid.y_dense(u, 2).rows - prandtl._advection(u).rows - dut)[:, 1:-1]
    return Field(g, pg)


class TestRecoverV:
    def test_zero(self):
        g = Grid(16, 17)
        v = recover_v(Field.zeros(g))
        assert np.abs(v.rows).max() == 0.0

    def test_x_independent(self):
        g = Grid(16, 17)
        c = np.zeros((g.band, g.Ny), dtype=complex)
        c[0] = np.sin(2 * np.pi * g.y)
        v = recover_v(Field(g, c))
        assert np.abs(v.rows).max() == 0.0

    def test_analytic_antiderivative(self):
        errs = []
        for Ny in (33, 65):
            g = Grid(32, Ny)
            x = xnodes(g)
            u = to_spectral(g, np.sin(x)[:, None] * np.sin(2 * np.pi * g.y)[None, :])
            rep = {}
            v = recover_v(u, report=rep)
            expect = -np.cos(x)[:, None] * (1 - np.cos(2 * np.pi * g.y))[None, :] / (
                2 * np.pi
            )
            errs.append(np.abs(to_physical(v) - expect).max())
            assert rep["wall_residual_rel"] < 0.05
        assert 3.0 < errs[0] / errs[1] < 5.5


class TestPressureGradient:
    def test_zero(self):
        g = Grid(16, 17)
        assert np.abs(pressure_gradient(Field.zeros(g)).rows).max() == 0.0

    def test_sin2py_profile_linear_part_vanishes(self):
        # dyy(sin 2 pi y) is antisymmetric about y = 1/2 on the interior
        # nodes, so only the quadratic term survives
        g = Grid(32, 33)
        c = 1e-3
        x = xnodes(g)
        u = to_spectral(
            g, c * np.sin(x)[:, None] * np.sin(2 * np.pi * g.y)[None, :]
        )
        pg = pressure_gradient(u)
        assert np.abs(pg.rows).max() < 10.0 * c**2

    def test_sin_py_boundary_derivative_value(self):
        # discrete law converges to [dy u]_0^1 = -2 pi g(x), first order
        errs = []
        for Ny in (65, 129):
            g = Grid(32, Ny)
            x = xnodes(g)
            gx = 1e-4 * np.cos(x)
            u = to_spectral(g, gx[:, None] * np.sin(np.pi * g.y)[None, :])
            pg = to_physical(pressure_gradient(u))
            errs.append(np.abs(pg[:, 3] - (-2 * np.pi * gx)).max())
        assert errs[0] < 2.2 * (2 * np.pi * 1e-4) / 64
        assert 1.7 < errs[0] / errs[1] < 2.4

    def test_y_independent_and_no_mean(self):
        g = Grid(32, 17)
        rng = np.random.default_rng(0)
        shape = (g.band, g.Ny)
        c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 1e-2
        c[0] = c[0].real
        c[:, 0] = c[:, -1] = 0.0
        u = Field(g, c)
        pg = pressure_gradient(u).rows[:, 1:-1]
        # one value per x-mode: equal across the rows up to the roundoff
        # of reading it back from the acceleration
        spread = np.abs(pg - pg[:, :1]).max()
        assert spread <= 4 * np.finfo(float).eps * np.abs(dyy(u).rows).max()
        assert np.abs(pg[0]).max() == 0.0


class TestRhs:
    def test_zero_state(self):
        g = Grid(16, 17)
        dut = prandtl_rhs(PrandtlState(Field.zeros(g), Field.zeros(g)))
        assert np.abs(dut.rows).max() == 0.0

    def test_linear_plugin_mode(self):
        g = Grid(8, 65)
        A, B = 0.7, -0.3
        cu = np.zeros((g.band, g.Ny), dtype=complex)
        cu[0] = A * np.sin(2 * np.pi * g.y)
        ct = np.zeros_like(cu)
        ct[0] = B * np.sin(2 * np.pi * g.y)
        dut = prandtl_rhs(PrandtlState(Field(g, cu), Field(g, ct)))
        mu_d = mu_discrete(g.Ny)
        expect = (-mu_d * A - B) * np.sin(2 * np.pi * g.y[1:-1])
        got = dut.rows[0, 1:-1].real
        # exact against the discrete eigenvalue, up to the 1/dy^2 roundoff
        # amplification inherent in the second difference ...
        assert np.abs(got - expect).max() < 20 * np.finfo(float).eps / g.dy**2
        # ... and O(dy^2) against the continuum one
        cont = (-4 * np.pi**2 * A - B) * np.sin(2 * np.pi * g.y[1:-1])
        assert np.abs(got - cont).max() < 5.0 * g.dy**2 * 4 * np.pi**2

    def test_manufactured_solution_residual(self):
        errs = []
        for Ny in (33, 65):
            g = Grid(32, Ny)
            x, y = xnodes(g), g.y
            X, Y = x[:, None], y[None, :]
            ustar = np.sin(X) * np.sin(2 * np.pi * Y)
            u = to_spectral(g, ustar)
            ut = to_spectral(g, -ustar)
            dut = prandtl_rhs(PrandtlState(u, ut))
            # analytic right-hand side at t = 0
            vstar = -np.cos(X) * (1 - np.cos(2 * np.pi * Y)) / (2 * np.pi)
            Nstar = ustar * np.cos(X) * np.sin(2 * np.pi * Y) + vstar * np.sin(
                X
            ) * 2 * np.pi * np.cos(2 * np.pi * Y)
            pstar = -np.sin(X[:, 0]) * np.cos(X[:, 0])  # -d_x int u^2 dy
            analytic = (
                -4 * np.pi**2 * ustar + ustar - Nstar - pstar[:, None]
            )
            got = to_physical(dut)
            errs.append(np.abs(got[:, 1:-1] - analytic[:, 1:-1]).max())
        assert 3.0 < errs[0] / errs[1] < 5.5

    def test_nonfinite_aborts_with_location(self):
        g = Grid(16, 17)
        c = np.zeros((g.band, g.Ny), dtype=complex)
        c[0, 5] = np.nan
        with pytest.raises(SolverAbort, match="non-finite"):
            prandtl_rhs(PrandtlState(Field(g, c), Field.zeros(g)))


class TestDenseYOperators:
    """The right-hand side applies d2/dy2 and int_0^y as dense products and
    takes the advection from the advection form of `multiply`; an oracle
    written out in the test checks it, with `dyy` and `dy` (checked
    against the stencils in tests/test_grid.py), scipy's trapezoid rule
    and single-field products."""

    @staticmethod
    def oracle(u: Field, ut: Field, factor: float, nonlinear: bool):
        """(d_x p values, acceleration rows) by the grid's derivatives,
        with v = -int_0^y d_x u by scipy's trapezoid rule and the advection
        as the two products u u_x + v u_y."""
        g = u.grid
        visc = dyy(u).rows
        inner = np.add.reduce(visc[:, 1:-1], axis=1)
        acc = visc - ut.rows
        if nonlinear:
            ux = dx(u)
            v = Field(g, -cumulative_trapezoid(ux.rows, dx=g.dy, axis=-1, initial=0))
            N = (multiply(u, ux) + multiply(v, dy(u))).rows
            inner = inner - factor * np.add.reduce(N[:, 1:-1], axis=1)
            acc -= N
        pg = inner / (g.Ny - 2)
        pg[0] = 0.0
        acc -= pg[:, None]
        acc[:, [0, -1]] = 0.0
        return pg, acc

    @staticmethod
    def state(g: Grid) -> PrandtlState:
        # large enough that the advection is a fair share of the acceleration
        rng = np.random.default_rng(g.Ny)
        rows = rng.standard_normal((2, g.band, g.Ny)) + 1j * rng.standard_normal((2, g.band, g.Ny))
        rows[:, 0] = rows[:, 0].real
        rows[:, :, [0, -1]] = 0.0
        rows[0] *= 0.3 / g.dy
        return PrandtlState(Field(g, rows[0]), Field(g, rows[1]))

    @pytest.mark.parametrize("shape", [(8, 9), (32, 33), (128, 65)])
    @pytest.mark.parametrize("nonlinear", [True, False], ids=["factor1", "linear"])
    def test_rhs_matches_the_stencil_oracle(self, shape, nonlinear):
        s = self.state(Grid(*shape))
        pg, expect = self.oracle(s.u, s.ut, 1.0, nonlinear)
        dut = prandtl_rhs(s, linear=not nonlinear)
        assert np.abs(dut.rows - expect).max() <= 1e-13 * np.abs(expect).max()
        if nonlinear:
            got = pressure_gradient(s.u).rows[:, 1:-1]
            assert np.abs(got - pg[:, None]).max() <= 1e-13 * np.abs(pg).max()


class TestStep:
    def make_eigenmode_state(self, g, amp=1.0, x_mode=0):
        cu = np.zeros((g.band, g.Ny), dtype=complex)
        prof = amp * np.sin(2 * np.pi * g.y)
        prof[0] = prof[-1] = 0.0
        cu[x_mode] = prof if x_mode == 0 else 0.5 * prof  # its mirror -m holds the other half
        return PrandtlState(Field(g, cu), Field.zeros(g))

    def test_zero_state_is_fixed_point(self):
        g = Grid(16, 17)
        s = PrandtlState(Field.zeros(g), Field.zeros(g))
        s2 = prandtl_step(s, 1e-3)
        assert np.abs(s2.u.rows).max() == 0.0
        assert np.abs(s2.ut.rows).max() == 0.0
        assert s2.t == pytest.approx(1e-3)

    def run_oscillator(self, dt, T=1.0, Ny=65):
        g = Grid(8, Ny)
        s = self.make_eigenmode_state(g)
        n = int(round(T / dt))
        for _ in range(n):
            s = prandtl_step(s, dt)
        j = Ny // 4  # y = 1/4 where sin(2 pi y) = 1
        return s.u.rows[0, j].real / np.sin(2 * np.pi * g.y[j])

    def test_oscillator_closed_form(self):
        mu_d = mu_discrete(65)
        got = self.run_oscillator(1e-3)
        expect = osc(mu_d, 1.0)
        assert abs(got - expect) / abs(expect) <= 1e-6

    def test_fourth_order_in_dt(self):
        mu_d = mu_discrete(65)
        expect = osc(mu_d, 1.0)
        e1 = abs(self.run_oscillator(1e-3) - expect)
        e2 = abs(self.run_oscillator(5e-4) - expect)
        assert 10.0 <= e1 / e2 <= 22.0

    def test_cfl_abort(self):
        g = Grid(16, 17)
        s = self.make_eigenmode_state(g)
        with pytest.raises(SolverAbort, match="CFL"):
            prandtl_step(s, 10.0 * g.dy)

    def test_stage_abort_carries_step_input(self, monkeypatch):
        g = Grid(16, 17)
        s = self.make_eigenmode_state(g, amp=0.1, x_mode=1)
        s = PrandtlState(s.u, 0.5 * s.u, t=0.375)
        calls = []

        def failing_rhs(state, *args):
            calls.append(state)
            if len(calls) == 3:
                raise SolverAbort("synthetic failure", state)
            return prandtl_rhs(state, *args)

        monkeypatch.setattr(prandtl, "prandtl_rhs", failing_rhs)
        u, ut = s.u.rows.copy(), s.ut.rows.copy()
        with pytest.raises(SolverAbort, match="stage 3: synthetic failure") as info:
            prandtl_step(s, 0.25 * g.dy)
        got = info.value.state
        assert got.t == 0.375
        assert np.array_equal(got.u.rows, u)
        assert np.array_equal(got.ut.rows, ut)
        assert not np.array_equal(calls[2].u.rows, u)  # a real stage

    def test_returned_states_keep_their_bytes(self):
        # samples keep returned states; stage buffers are reused, so later
        # steps must write only into fresh arrays
        g = Grid(16, 17)
        s = self.make_eigenmode_state(g, amp=0.1, x_mode=1)
        dt = 0.25 * g.dy
        s = prandtl_step(PrandtlState(s.u, 0.5 * s.u), dt)
        arrays = (s.stack,) + tuple(f.rows for f in s.fields)
        held = [a.tobytes() for a in arrays]
        later = s
        for _ in range(5):
            later = prandtl_step(later, dt)
        assert [a.tobytes() for a in arrays] == held

    def test_linear_envelope_never_exceeded(self):
        g = Grid(16, 33)
        s = self.make_eigenmode_state(g, amp=1.0, x_mode=1)
        norm0 = l2_norm(s.u)
        mu_d = mu_discrete(g.Ny)
        w = np.sqrt(mu_d - 0.25)
        amp = np.sqrt(1.0 + 1.0 / (4 * w**2))  # envelope of A(t), A(0)=1, A'(0)=0
        dt = 0.25 * g.dy
        for _ in range(12):
            for _ in range(32):
                s = prandtl_step(s, dt, linear=True)
            env = np.exp(-s.t / 2.0) * amp * norm0
            assert l2_norm(s.u) <= env * (1.0 + 1e-6)

    def test_invariant_check_catches_unpinned_state(self):
        g = Grid(16, 17)
        c = np.zeros((g.band, g.Ny), dtype=complex)
        c[0, 0] = 1.0  # wall row loaded
        s = PrandtlState(Field(g, c), Field.zeros(g))
        with pytest.raises(SolverAbort, match="wall"):
            s.check_invariants()


class TestConservation:
    def test_vertical_mean_stays_at_rounding(self):
        g = Grid(32, 17)
        p = GevreyParams(a=0.5)
        u0, u1 = make_gevrey_data(g, p, amplitude=1e-5, m_max=5)
        s = PrandtlState(u0, u1)
        dt = 0.25 * g.dy
        worst_nonmean = 0.0
        worst_all = 0.0
        for i in range(200):
            s = prandtl_step(s, dt, check=(i % 50 == 49))
            means = np.abs(mean_y(s.u))
            worst_all = max(worst_all, means.max())
            worst_nonmean = max(worst_nonmean, means[1:].max())
        # m != 0 modes conserve bit-tight; m = 0 is driven at O(c^2 dy^2)
        assert worst_nonmean <= 1e-14 * 1e-5
        assert worst_all <= 1e-10

    def test_half_factor_breaks_conservation(self):
        # any prefactor other than 1 in the mean pressure law leaks mean:
        # the stencil oracle at 1/2, stepped as prandtl_step steps
        g = Grid(32, 17)
        p = GevreyParams(a=0.5)
        u0, u1 = make_gevrey_data(g, p, amplitude=5e-2, m_max=5)
        s = PrandtlState(u0, u1)
        dt = 0.25 * g.dy

        def accel(stage, out):
            out[0] = TestDenseYOperators.oracle(stage.u, stage.ut, 0.5, True)[1]

        for _ in range(200):
            s = s.with_stack(rk4_step(s, dt, accel), t=s.t + dt)
        drift = np.abs(mean_y(s.u))[1:].max()
        assert drift > 1e-12


class TestSmallDataDecay:
    def test_weighted_besov_stays_bounded_short_run(self):
        g = Grid(32, 17)
        p = GevreyParams(a=0.5)
        u0, u1 = make_gevrey_data(g, p, amplitude=3e-5, m_max=5)
        s = PrandtlState(u0, u1)
        dt = 0.25 * g.dy
        bank = paley.get_bank(g)
        weighted0 = paley.besov_norm(y_density(apply_gevrey(s.u, 0.0, p, +1)), 0.5, bank)
        K = p.K
        worst = 0.0
        while s.t < 5.0:
            for _ in range(40):
                s = prandtl_step(s, dt)
            w = paley.besov_norm(y_density(apply_gevrey(s.u, s.t, p, +1)), 0.5, bank)
            worst = max(worst, np.exp(K * s.t) * w)
        assert worst <= 10.0 * weighted0
        assert np.abs(mean_y(s.u)).max() <= 1e-10


class TestCallBudget:
    #: Python and C calls that `sys.setprofile` saw in one warm prandtl_step
    #: at 32x33 before the fused RK4 update (Python 3.11, numpy 2.4); numpy's
    #: own FFT wrappers are part of the count, so it depends on numpy
    BEFORE = 609
    #: the count reached, and the margin allowed above it.  The count was
    #: 358 before the solvers took stacked Fields, 342 after, 309 with the
    #: dense y operators, 306 with one pressure law and one `linear` switch
    #: (305 measured since), 317 since `y_dense` refuses an `out` that
    #: overlaps its input (one `np.may_share_memory` per call), 329 since
    #: `y_dense` calls the raw tile loop `_y_apply`, and 297 since the
    #: advection is the first output of `multiply(uv)` (no band d/dx or
    #: d/dy of u, and no fused-sum product)
    REACHED = 297
    MARGIN = 20

    def test_step_makes_at_most_two_thirds_of_the_calls(self):
        import sys

        g = Grid(32, 33)
        u0, u1 = make_gevrey_data(g, GevreyParams(a=0.5), amplitude=1e-4, m_max=2)
        s = PrandtlState(u0, u1)
        dt = 0.25 * g.dy
        for _ in range(3):  # warm the work buffers
            s = prandtl_step(s, dt)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event in ("call", "c_call")

        sys.setprofile(count)
        try:
            prandtl_step(s, dt)
        finally:
            sys.setprofile(None)
        assert calls <= self.REACHED + self.MARGIN < 2 * self.BEFORE // 3, calls
