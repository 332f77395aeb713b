"""Tests for the shared RK4 step and the stacked state layout."""

import numpy as np
import pytest

from stripflow.grid import Field, Grid
from stripflow.hns import HnsState
from stripflow.prandtl import PrandtlState
from stripflow.stepper import SolverAbort, rk4_step


def random_state(g: Grid, n: int, seed: int):
    """A state over a random complex (n, band, Ny) stack (no wall pinning)."""
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((n, g.band, g.Ny)) + 1j * rng.standard_normal((n, g.band, g.Ny))
    fields = [Field(g, rows) for rows in stack]
    if n == 2:
        return PrandtlState(*fields, t=0.25)
    return HnsState(*fields, eps=0.5, t=0.25)


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
        got = rk4_step(s, dt, accel, lambda y: None)
        assert np.array_equal(got, textbook_rk4(y0, dt, f))
        assert np.array_equal(s.stack, y0)  # the input is only read
        assert got is not s.stack

    def test_reused_buffers_do_not_leak_between_steps(self):
        g = Grid(16, 17)
        f, accel = linear_accel(2, 7)
        dt = 0.25 * g.dy
        a, b = random_state(g, 2, 3), random_state(g, 2, 4)
        first = rk4_step(a, dt, accel, lambda y: None)
        rk4_step(b, dt, accel, lambda y: None)
        assert np.array_equal(rk4_step(a, dt, accel, lambda y: None), first)

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
            rk4_step(s, 0.25 * g.dy, accel, lambda y: None)
        assert info.value.state is s
        assert info.value.stage == 2
        assert seen[1] is not s  # the stage state, not the step input

    def test_dt_guards(self):
        g = Grid(16, 17)
        s = random_state(g, 2, 6)
        with pytest.raises(SolverAbort, match="positive") as info:
            rk4_step(s, 0.0, None, None)
        assert info.value.state is s and info.value.stage is None
        with pytest.raises(SolverAbort, match="CFL"):
            rk4_step(s, 10.0 * g.dy, None, None)


class TestWithStack:
    def test_views_the_new_stack_and_applies_changes(self):
        g = Grid(16, 17)
        s = random_state(g, 4, 0)
        stack = np.zeros_like(s.stack)
        new = s.with_stack(stack, t=1.5, steps=3)
        assert new.stack is stack
        for f, rows in zip(new.fields, stack):
            assert np.shares_memory(f.rows, stack) and np.array_equal(f.rows, rows)
        assert (new.t, new.steps, new.eps, new.grid) == (1.5, 3, s.eps, s.grid)
        assert (s.t, s.steps) == (0.25, 0)  # the source state is unchanged

    def test_refuses_what_the_constructor_refuses(self):
        g = Grid(16, 17)
        s = random_state(g, 4, 1)
        with pytest.raises(ValueError, match="eps"):
            s.with_stack(s.stack, eps=2.0)
        with pytest.raises(TypeError, match="no fields"):
            s.with_stack(s.stack, tt=1.0)
