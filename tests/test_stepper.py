"""Tests for the shared RK4 step and the stacked state layout."""

import numpy as np
import pytest

from stripflow.gevrey import GevreyParams, make_gevrey_data
from stripflow.grid import Field, Grid
from stripflow.harness import RunConfig, cmd_run, read_snapshot
from stripflow.hns import HnsState, divergence_cleanup, hns_step, make_hns_data
from stripflow.prandtl import PrandtlState, prandtl_step
from stripflow.stepper import SolverAbort, rk4_step


class UnpinnedPrandtl(PrandtlState):
    """A PrandtlState whose rule pins nothing, so `rk4_step` is plain RK4."""

    def pin(self, y):
        pass


class UnpinnedHns(HnsState):
    """An HnsState whose rule pins nothing, so `rk4_step` is plain RK4."""

    def pin(self, y):
        pass


def random_state(g: Grid, n: int, seed: int, pinned: bool = False):
    """A state over a random complex (n, band, Ny) stack, nonzero at the
    walls and mean rows; its type pins nothing unless `pinned`."""
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((n, g.band, g.Ny)) + 1j * rng.standard_normal((n, g.band, g.Ny))
    fields = [Field(g, rows) for rows in stack]
    if n == 2:
        return (PrandtlState if pinned else UnpinnedPrandtl)(*fields, t=0.25)
    return (HnsState if pinned else UnpinnedHns)(*fields, eps=0.5, t=0.25)


def pinned_entries(n: int, shape) -> np.ndarray:
    """Mask of the entries a stack of n rows pins: the walls of every row,
    and for (u, v, ut, vt) the x-mean rows of v and vt."""
    mask = np.zeros(shape, dtype=bool)
    mask[..., [0, -1]] = True
    if n == 4:
        mask[1::2, 0] = True
    return mask


def assert_plus_zero(values: np.ndarray, what: str = "") -> None:
    """Every entry is +0.0, in its real and its imaginary part."""
    for part in (values.real, values.imag):
        assert np.all(part == 0.0), what
        assert not np.signbit(part).any(), (what, int(np.signbit(part).sum()))


def linear_accel(n: int, seed: int):
    """q_tt = a q + b q_t with random complex coefficients per entry."""
    rng = np.random.default_rng(seed)
    shape = (n // 2, 1, 1)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def f(y):
        return a * y[:n // 2] + b * y[n // 2:]

    def accel(state, out):
        out[...] = f(state.stack)

    return f, accel


def textbook_rk4(y0, dt, f):
    """Classical RK4 on y' = (q_t, f(y)), keeping k1..k4."""
    half = len(y0) // 2

    def slope(y):
        return np.concatenate([y[half:], f(y)])

    k1 = slope(y0)
    k2 = slope(y0 + dt / 2 * k1)
    k3 = slope(y0 + dt / 2 * k2)
    k4 = slope(y0 + dt * k3)
    return y0 + dt / 6 * (((k1 + 2 * k2) + 2 * k3) + k4)


class TestRk4Step:
    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_textbook_rk4_bit_for_bit(self, n, seed):
        # the fused update must keep the textbook's arithmetic and its order
        g = Grid(32, 33)
        s = random_state(g, n, seed)
        f, accel = linear_accel(n, seed + 100)
        dt = 0.25 * g.dy
        y0 = s.stack.copy()
        got = rk4_step(s, dt, accel)
        assert np.array_equal(got, textbook_rk4(y0, dt, f))
        assert np.array_equal(s.stack, y0)  # the input is only read
        assert got is not s.stack

    @pytest.mark.parametrize("n", [2, 4])
    def test_pins_with_the_state_types_rule(self, n):
        # the pinned entries come back +0.0; every other one is plain RK4's
        g = Grid(32, 33)
        s = random_state(g, n, 8, pinned=True)
        f, accel = linear_accel(n, 108)
        dt = 0.25 * g.dy
        want = textbook_rk4(s.stack.copy(), dt, f)
        got = rk4_step(s, dt, accel)
        mask = pinned_entries(n, got.shape)
        assert np.abs(want[mask]).min() > 0.0  # plain RK4 leaves them nonzero
        assert_plus_zero(got[mask])
        assert np.array_equal(got[~mask], want[~mask])

    def test_reused_buffers_do_not_leak_between_steps(self):
        g = Grid(16, 17)
        f, accel = linear_accel(2, 7)
        dt = 0.25 * g.dy
        a, b = random_state(g, 2, 3), random_state(g, 2, 4)
        first = rk4_step(a, dt, accel)
        rk4_step(b, dt, accel)
        assert np.array_equal(rk4_step(a, dt, accel), first)

    def test_stage_abort_names_stage_and_carries_input(self):
        g = Grid(16, 17)
        s = random_state(g, 2, 5)
        seen = []

        def accel(state, out):
            seen.append(state)
            if len(seen) == 2:
                raise SolverAbort("synthetic", state)
            out[...] = 0.0

        with pytest.raises(SolverAbort, match="^RK stage 2: synthetic$") as info:
            rk4_step(s, 0.25 * g.dy, accel)
        assert info.value.state is s
        assert info.value.stage == 2
        assert seen[1] is not s  # the stage state, not the step input

    def test_dt_guards(self):
        g = Grid(16, 17)
        s = random_state(g, 2, 6)
        with pytest.raises(SolverAbort, match="positive") as info:
            rk4_step(s, 0.0, None)
        assert info.value.state is s and info.value.stage is None
        with pytest.raises(SolverAbort, match="CFL"):
            rk4_step(s, 10.0 * g.dy, None)


class TestWithStack:
    def test_views_the_new_stack_and_applies_changes(self):
        g = Grid(16, 17)
        s = random_state(g, 4, 0)
        stack = np.zeros_like(s.stack)
        new = s.with_stack(stack, t=1.5, energy_mark=3.0)
        assert new.stack is stack
        for f, rows in zip(new.fields, stack):
            assert np.shares_memory(f.rows, stack) and np.array_equal(f.rows, rows)
        assert (new.t, new.energy_mark, new.eps, new.grid) == (1.5, 3.0, s.eps, s.grid)
        assert (s.t, s.energy_mark) == (0.25, -1.0)  # the source state is unchanged

    def test_refuses_what_the_constructor_refuses(self):
        g = Grid(16, 17)
        s = random_state(g, 4, 1)
        with pytest.raises(ValueError, match="eps"):
            s.with_stack(s.stack, eps=2.0)
        with pytest.raises(TypeError, match="no fields"):
            s.with_stack(s.stack, tt=1.0)

    @pytest.mark.parametrize("name", ["stack", "grid", "u", "v", "ut", "vt"])
    def test_refuses_what_only_the_stack_sets(self, name):
        # a row, the grid or the stack passed by name would be dropped or
        # fail elsewhere: the stack argument alone sets them
        g = Grid(16, 17)
        s = random_state(g, 4, 2)
        value = getattr(s, name)
        with pytest.raises(TypeError, match="pass rows in the stack"):
            s.with_stack(s.stack.copy(), **{name: value})


class TestStateGuards:
    def test_non_finite_interior_aborts(self):
        g = Grid(16, 17)
        c = np.zeros((g.band, g.Ny), dtype=complex)
        c[1, 5] = np.nan  # the walls stay pinned
        s = PrandtlState(Field.zeros(g), Field(g, c))
        with pytest.raises(SolverAbort, match="non-finite ut"):
            s.check_invariants()

    def test_fields_on_two_grids_refused(self):
        # same shapes, another period: only the grid check tells them apart
        u, ut = Field.zeros(Grid(16, 17)), Field.zeros(Grid(16, 17, Lx=1.0))
        with pytest.raises(ValueError, match="share one grid"):
            PrandtlState(u, ut)


class TestPinnedZerosArePositive:
    """Each state a solver returns holds +0.0, never -0.0, at every entry
    its type pins (`StackedState.pin`, `HnsState.pin`)."""

    P = GevreyParams(a=0.5)

    def data(self, shape):
        g = Grid(*shape)
        u0, u1 = make_gevrey_data(g, self.P, amplitude=1e-4, m_max=4)
        return g, u0, u1

    def assert_pinned(self, state, what):
        n = len(state.ROWS)
        assert_plus_zero(state.stack[pinned_entries(n, state.stack.shape)], what)

    @pytest.mark.parametrize("shape", [(32, 33), (128, 65)])
    def test_hns_states(self, shape):
        g, u0, _ = self.data(shape)
        dt = 0.25 * g.dy
        for u1 in (None, u0 * (-0.5)):
            s = make_hns_data(u0, self.P, eps=0.1, u1=u1)
            self.assert_pinned(s, "make_hns_data")
            self.assert_pinned(divergence_cleanup(s), "divergence_cleanup")
            for check in (False, True):  # the second step ends with a cleanup
                s = hns_step(s, dt, check=check)
                self.assert_pinned(s, f"hns_step t={s.t}")

    def test_prandtl_run_initial_state(self, tmp_path):
        # u1 = -u0/2 turns the +0.0 walls of u0 into -0.0 in ut; the run's
        # initial state, and so its initial.snap, must hold +0.0 there
        cfg = RunConfig(Nx=32, Ny=33, amplitude=1e-4, m_max=4, u1="half-decay",
                        T_final=4 * 0.25 / 32, directory=str(tmp_path / "out"))
        _, u1 = cfg.make_data()
        assert np.signbit(u1.rows[:, [0, -1]].real).any()  # the data has -0.0
        out = cmd_run(cfg)
        self.assert_pinned(read_snapshot(out / "snapshots" / "initial.snap"),
                           "initial.snap")

    @pytest.mark.parametrize("shape", [(32, 33), (128, 65)])
    def test_prandtl_step(self, shape):
        g, u0, u1 = self.data(shape)
        s = prandtl_step(PrandtlState(u0, u1), 0.25 * g.dy)
        self.assert_pinned(s, "prandtl_step")
