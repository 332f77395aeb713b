"""Tests for the spectral/finite-difference substrate."""

import numpy as np
import pytest

from stripflow import grid as sg
from stripflow.gevrey import GevreyParams, apply_gevrey
from stripflow.grid import (
    Field,
    Grid,
    cumulative_trapezoid,
    dx,
    dy,
    dy_matrix,
    dyy,
    frac_dx,
    integrate_y,
    l2_norm,
    mean_y,
    multiply,
    pin_walls,
    to_physical,
    to_spectral,
)
from stripflow.paley import S_k, bony, delta_k


def make_grid(Nx=64, Ny=33, Lx=2 * np.pi):
    return Grid(Nx, Ny, Lx)


def random_rows(g: Grid, rng) -> np.ndarray:
    """Band rows m = 0..Nx/3 of a random real field (real mean row)."""
    shape = (g.band, g.Ny)
    band = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    band[0] = band[0].real
    return band


def random_dealiased(g: Grid, rng) -> np.ndarray:
    """Physical values of a random real field on the band |m| <= Nx/3."""
    return to_physical(Field(g, random_rows(g, rng)))


def band_limited_field(g: Grid, mmax: int, seed: int = 0) -> Field:
    """Random real field supported on modes |m| <= mmax, smooth in y."""
    rng = np.random.default_rng(seed)
    X = g.Lx * np.arange(g.Nx)[:, None] / g.Nx
    Y = g.y[None, :]
    vals = np.zeros((g.Nx, g.Ny))
    for m in range(1, mmax + 1):
        amp, phase = rng.normal(), rng.uniform(0, 2 * np.pi)
        kx = 2 * np.pi * m / g.Lx
        prof = np.sin((1 + m % 3) * np.pi * Y) + 0.3 * np.cos(np.pi * Y)
        vals += amp * np.cos(kx * X + phase) * prof
    vals += rng.normal() * np.sin(np.pi * Y)  # m = 0 content
    return to_spectral(g, vals)


class TestGridConstruction:
    def test_basic_attributes(self):
        g = make_grid(16, 9, Lx=4.0)
        assert g.dy == pytest.approx(1 / 8)
        assert g.y[0] == 0.0 and g.y[-1] == 1.0
        assert g.xi[1] == pytest.approx(2 * np.pi / 4.0)
        assert g.xi[-1] == pytest.approx(-2 * np.pi / 4.0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="must be positive"):
            Grid(16, 9, Lx=-1.0)
        with pytest.raises(ValueError, match="even"):
            Grid(15, 9)
        with pytest.raises(ValueError, match="Ny"):
            Grid(16, 7)

    @pytest.mark.parametrize("Lx", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_rejects_non_finite_period(self, Lx):
        with pytest.raises(ValueError, match="Lx must be positive and finite"):
            Grid(8, 9, Lx=Lx)


class TestTransforms:
    def test_constant_field_single_coefficient(self):
        g = make_grid()
        f = to_spectral(g, np.ones((g.Nx, g.Ny)))
        assert f.coeff[0, 0] == pytest.approx(1.0)
        off = f.coeff.copy()
        off[0, :] = 0.0
        assert np.abs(off).max() < 1e-14

    def test_cosine_mode_coefficients(self):
        g = make_grid()
        x = g.Lx * np.arange(g.Nx) / g.Nx
        f = to_spectral(g, np.cos(2 * np.pi * x / g.Lx)[:, None] * np.ones(g.Ny))
        assert f.coeff[1, 5] == pytest.approx(0.5)
        assert f.coeff[-1, 5] == pytest.approx(0.5)
        mask = np.ones(g.Nx, dtype=bool)
        mask[[1, -1]] = False
        assert np.abs(f.coeff[mask]).max() < 1e-14

    def test_round_trip_random(self):
        g = make_grid(128, 17)
        rng = np.random.default_rng(7)
        vals = random_dealiased(g, rng)
        back = to_physical(to_spectral(g, vals))
        assert np.abs(back - vals).max() <= 1e-13 * np.abs(vals).max()

    def test_shape_mismatch_reported(self):
        g = make_grid(16, 9)
        with pytest.raises(ValueError, match=r"\(16, 9\)"):
            to_spectral(g, np.zeros((16, 10)))
        with pytest.raises(ValueError, match="shape"):
            Field(g, np.zeros((17, 9), dtype=complex))

    def test_to_spectral_refuses_non_dealiased_values(self):
        g = make_grid(16, 9)
        vals = np.random.default_rng(1).standard_normal((16, 9))
        with pytest.raises(ValueError, match="outside the band"):
            to_spectral(g, vals)

    def test_to_physical_rejects_broken_symmetry(self):
        # a band Field is conjugate-symmetric by construction except for its
        # mean row m = 0, which must be real
        g = make_grid(16, 9)
        rows = random_rows(g, np.random.default_rng(1))
        scale = np.abs(rows).max()
        rows[0, 4] += 1e-14j * scale  # roundoff passes
        to_physical(Field(g, rows))
        rows[0, 4] += 1.0j * scale
        with pytest.raises(ValueError, match="conjugate-symmetric"):
            to_physical(Field(g, rows))


class TestDx:
    def test_constant_derivative_zero(self):
        g = make_grid()
        f = to_spectral(g, np.ones((g.Nx, g.Ny)))
        assert np.abs(dx(f).coeff).max() < 1e-15

    def test_single_mode_exact(self):
        g = make_grid(Lx=5.0)
        x = g.Lx * np.arange(g.Nx) / g.Nx
        prof = 1.0 + g.y**2
        f = to_spectral(g, np.sin(2 * np.pi * x / g.Lx)[:, None] * prof[None, :])
        expect = (2 * np.pi / g.Lx) * np.cos(2 * np.pi * x / g.Lx)[:, None] * prof
        assert np.abs(to_physical(dx(f)) - expect).max() < 1e-12

    def test_matches_fd4_oracle(self):
        # 4th-order centered finite differences in x, refined once
        errs = []
        for Nx in (64, 128):
            g = make_grid(Nx, 17)
            f = band_limited_field(g, mmax=8, seed=3)
            vals = to_physical(f)
            h = g.Lx / g.Nx
            fd = (
                -np.roll(vals, -2, axis=0)
                + 8 * np.roll(vals, -1, axis=0)
                - 8 * np.roll(vals, 1, axis=0)
                + np.roll(vals, 2, axis=0)
            ) / (12 * h)
            exact = to_physical(dx(f))
            errs.append(np.abs(fd - exact).max() / np.abs(exact).max())
        assert errs[0] < 0.05
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0  # O(dx^4)


class TestFracDx:
    def test_identity_at_zero(self):
        g = make_grid()
        f = band_limited_field(g, 6, seed=5)
        assert np.abs(frac_dx(f, 0.0).coeff - f.coeff).max() < 1e-15

    def test_semigroup(self):
        g = make_grid()
        f = band_limited_field(g, 6, seed=6)
        twice = frac_dx(frac_dx(f, 2.0), 2.0)
        once = frac_dx(f, 4.0)
        scale = np.abs(once.coeff).max()
        assert np.abs(twice.coeff - once.coeff).max() <= 1e-13 * scale

    def test_single_mode_half_power(self):
        g = make_grid(Lx=2 * np.pi)  # xi_1 = 1 -> pick mode m = 2 so xi = 2
        f = Field.zeros(g)
        f.rows[2, :] = 1.0
        out = frac_dx(f, 0.5)
        assert out.coeff[2, 3] == pytest.approx(np.sqrt(2.0))

    def test_single_mode_xi_2pi(self):
        g = make_grid(Lx=1.0)  # xi_1 = 2*pi
        f = Field.zeros(g)
        f.rows[1, :] = 1.0
        out = frac_dx(f, 0.5)
        assert out.coeff[1, 0] == pytest.approx((2 * np.pi) ** 0.5)

    def test_negative_power_kills_mean(self):
        g = make_grid()
        f = to_spectral(g, np.ones((g.Nx, g.Ny)) + 0.0 * g.y[None, :])
        out = frac_dx(f, -0.5)
        assert np.abs(out.coeff[0]).max() == 0.0

    def test_commutes_with_dx(self):
        g = make_grid()
        f = band_limited_field(g, 6, seed=8)
        a = dx(frac_dx(f, 0.5))
        b = frac_dx(dx(f), 0.5)
        scale = np.abs(a.coeff).max()
        assert np.abs(a.coeff - b.coeff).max() <= 1e-13 * scale


class TestDyOperators:
    def test_dyy_exact_on_quadratic(self):
        g = make_grid(16, 21)
        f = Field(g, np.tile(g.y**2, (g.band, 1)).astype(complex))
        out = dyy(f)
        assert np.abs(out.rows - 2.0).max() < 1e-10

    def test_dy_exact_on_quadratic(self):
        g = make_grid(16, 21)
        f = Field(g, np.tile(g.y**2, (g.band, 1)).astype(complex))
        out = dy(f)
        assert np.abs(out.rows - 2.0 * g.y[None, :]).max() < 1e-10

    def test_constant_in_y(self):
        g = make_grid(16, 21)
        f = Field(g, np.ones((g.band, g.Ny), dtype=complex))
        assert np.abs(dy(f).coeff).max() < 1e-12
        assert np.abs(dyy(f).coeff).max() < 1e-12

    @pytest.mark.parametrize("op,prof,deriv", [
        # sin profile for dy; cos profile for dyy (sin has f'''' = 0 at the
        # walls, which degenerates the one-sided stencil's leading error)
        (dy, np.sin, lambda y: 2 * np.pi * np.cos(2 * np.pi * y)),
        (dyy, np.cos, lambda y: -((2 * np.pi) ** 2) * np.cos(2 * np.pi * y)),
    ])
    def test_second_order_refinement(self, op, prof, deriv):
        errs = []
        for Ny in (33, 65):
            g = make_grid(8, Ny)
            f = Field(g, np.tile(prof(2 * np.pi * g.y), (g.band, 1)).astype(complex))
            err = np.abs(op(f).coeff[0].real - deriv(g.y)).max()
            errs.append(err)
        ratio = errs[0] / errs[1]
        assert 3.4 < ratio < 4.6

    def test_dy_matrix_matches_operator(self):
        g = make_grid(16, 17)
        f = band_limited_field(g, 4, seed=11)
        D = dy_matrix(g)
        direct = f.coeff @ D.T
        assert np.abs(direct - dy(f).coeff).max() < 1e-12 * np.abs(direct).max()


class TestIntegration:
    def test_cumulative_of_one_is_y(self):
        g = make_grid(8, 33)
        f = Field(g, np.ones((g.band, g.Ny), dtype=complex))
        out = integrate_y(f)
        assert np.abs(out.coeff[0].real - g.y).max() < 1e-13

    def test_full_integral_of_sin2py_vanishes(self):
        g = make_grid(8, 33)
        f = Field(g, np.tile(np.sin(2 * np.pi * g.y), (g.band, 1)).astype(complex))
        assert abs(mean_y(f)[0]) < g.dy**2

    def test_cumulative_matches_antiderivative(self):
        errs = []
        for Ny in (33, 65):
            g = make_grid(8, Ny)
            f = Field(g, np.tile(np.cos(np.pi * g.y), (g.band, 1)).astype(complex))
            out = integrate_y(f)
            errs.append(np.abs(out.coeff[0].real - np.sin(np.pi * g.y) / np.pi).max())
        assert errs[0] < 1e-3
        assert 3.4 < errs[0] / errs[1] < 4.6

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_cumulative_trapezoid_is_scipys(self, dtype):
        # same arithmetic in the same order, so equal to the last bit
        from scipy.integrate import cumulative_trapezoid as scipy_cumtrapz

        rng = np.random.default_rng(17)
        c = rng.standard_normal((12, 33)).astype(dtype)
        if dtype is complex:
            c += 1j * rng.standard_normal((12, 33))
        h = 1.0 / 32
        for arr in (c, c[3]):
            expect = scipy_cumtrapz(arr, dx=h, axis=-1, initial=0.0)
            got = cumulative_trapezoid(arr, h)
            assert got.dtype == expect.dtype
            assert np.array_equal(got, expect)


class TestL2Norm:
    def test_zero_field(self):
        g = make_grid()
        assert l2_norm(Field.zeros(g)) == 0.0

    def test_reference_mode(self):
        # sin(x) * sin(pi y) on Lx = 2*pi: norm^2 = pi/2
        g = make_grid(64, 65, Lx=2 * np.pi)
        x = g.Lx * np.arange(g.Nx) / g.Nx
        vals = np.sin(x)[:, None] * np.sin(np.pi * g.y)[None, :]
        f = to_spectral(g, vals)
        assert l2_norm(f) ** 2 == pytest.approx(np.pi / 2, rel=1e-12)

    def test_matches_physical_quadrature(self):
        g = make_grid(32, 41)
        f = band_limited_field(g, 9, seed=13)
        vals = to_physical(f)
        # direct quadrature: exact in x (uniform), trapezoid in y
        phys = np.sqrt((g.Lx / g.Nx) * np.sum(vals**2 @ g.trapz_w))
        assert l2_norm(f) == pytest.approx(phys, rel=1e-12)

    def test_homogeneity(self):
        g = make_grid()
        f = band_limited_field(g, 5, seed=17)
        assert l2_norm(-3.5 * f) == pytest.approx(3.5 * l2_norm(f), rel=1e-13)


class TestDealiasAndProducts:
    def test_product_convolution_identity(self):
        # cos(x) * cos(2x) = (cos(3x) + cos(x)) / 2, all inside the kept band
        g = make_grid(32, 9)
        x = g.Lx * np.arange(g.Nx) / g.Nx
        one_y = np.ones(g.Ny)
        f = to_spectral(g, np.cos(x)[:, None] * one_y)
        h = to_spectral(g, np.cos(2 * x)[:, None] * one_y)
        prod = multiply(f, h)
        expect = to_spectral(g, 0.5 * (np.cos(3 * x) + np.cos(x))[:, None] * one_y)
        assert np.abs(prod.coeff - expect.coeff).max() < 1e-14

    def test_product_is_dealiased(self):
        g = make_grid(12, 9)
        x = g.Lx * np.arange(g.Nx) / g.Nx
        one_y = np.ones(g.Ny)
        f = to_spectral(g, np.cos(3 * x)[:, None] * one_y)
        prod = multiply(f, f)  # cos^2(3x) has a mode at m = 6 > 12/3
        assert np.abs(prod.coeff[np.abs(g.m) > 4]).max() == 0.0

    def test_pin_walls(self):
        g = make_grid(8, 9)
        f = Field(g, np.ones((g.band, g.Ny), dtype=complex))
        out = pin_walls(f)
        assert np.abs(out.rows[:, 0]).max() == 0.0
        assert np.abs(out.rows[:, -1]).max() == 0.0
        assert np.abs(out.rows[:, 1] - 1.0).max() == 0.0

    @pytest.mark.parametrize("pairs", [1, 2, 3])
    def test_sequence_form_is_sum_of_products(self, pairs):
        # 3 pairs: one packed pair plus the odd leftover
        g = make_grid(48, 17)
        rng = np.random.default_rng(pairs)
        fs = [Field(g, random_rows(g, rng)) for _ in range(pairs)]
        hs = [Field(g, random_rows(g, rng)) for _ in range(pairs)]
        expect = multiply(fs[0], hs[0])
        for f, h in zip(fs[1:], hs[1:]):
            expect = expect + multiply(f, h)
        got = multiply(fs, hs)
        err = np.abs(got.coeff - expect.coeff).max()
        assert err <= 1e-13 * np.abs(expect.coeff).max()
        assert np.abs(got.coeff[~g.dealias_mask]).max() == 0.0

    @pytest.mark.parametrize("factors", [1, 2, 3])
    def test_multi_output_form_matches_products(self, factors):
        # an odd factor count leaves an unpaired f
        g = make_grid(48, 17)
        rng = np.random.default_rng(factors)

        def field():
            return Field(g, random_rows(g, rng))

        fs = [field() for _ in range(factors)]
        gss = [[field() for _ in range(factors)] for _ in range(2)]
        got = multiply(fs, gss)
        assert isinstance(got, tuple) and len(got) == 2
        for out, gs in zip(got, gss):
            expect = multiply(fs[0], gs[0])
            for f, h in zip(fs[1:], gs[1:]):
                expect = expect + multiply(f, h)
            err = np.abs(out.coeff - expect.coeff).max()
            assert err <= 1e-13 * np.abs(expect.coeff).max()
            assert np.abs(out.coeff[~g.dealias_mask]).max() == 0.0
            assert np.abs(out.rows[0].imag).max() <= 1e-15 * np.abs(out.rows).max()

    def test_sequence_form_rejects_bad_input(self):
        g = make_grid(16, 9)
        f = band_limited_field(g, 3)
        with pytest.raises(ValueError, match="equal-length"):
            multiply((), ())
        with pytest.raises(ValueError, match="equal-length"):
            multiply((f, f), (f,))
        with pytest.raises(ValueError, match="equal-length"):
            multiply((f, f), ((f, f), (f,)))
        for outputs in (1, 3):
            with pytest.raises(ValueError, match="exactly two outputs"):
                multiply((f, f), [(f, f)] * outputs)
        other = band_limited_field(make_grid(32, 9), 3)
        with pytest.raises(ValueError, match="grid mismatch"):
            multiply((f, f), (f, other))


class TestTransformCount:
    """Products are fused: un-fusing them must fail here, not only in a trace."""

    @pytest.fixture
    def count_transforms(self, monkeypatch):
        """Run a thunk with np.fft.fft/ifft counted; return the counts."""

        def run(thunk):
            calls = {"fft": 0, "ifft": 0}
            for name in calls:
                original = getattr(np.fft, name)

                def counted(*args, _name=name, _original=original, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(np.fft, name, counted)
            thunk()
            monkeypatch.undo()
            return calls

        return run

    def test_two_field_product(self, count_transforms):
        f = band_limited_field(make_grid(16, 9), 3)
        df = dx(f)
        assert count_transforms(lambda: multiply(f, df)) == {"fft": 1, "ifft": 2}

    def test_prandtl_rhs(self, count_transforms):
        from stripflow.prandtl import PrandtlState, prandtl_rhs

        g = make_grid(16, 9)
        s = PrandtlState(pin_walls(band_limited_field(g, 3)), Field.zeros(g))
        assert count_transforms(lambda: prandtl_rhs(s)) == {"fft": 1, "ifft": 2}

    def test_hns_rhs(self, count_transforms):
        from stripflow.hns import HnsState, hns_rhs

        g = make_grid(16, 9)
        u, v = (pin_walls(band_limited_field(g, 3, seed)) for seed in (0, 1))
        z = Field.zeros(g)
        s = HnsState(u, v, z, z.copy(), eps=0.5)
        assert count_transforms(lambda: hns_rhs(s)) == {"fft": 1, "ifft": 3}


class TestParsevalProperty:
    def test_spectral_equals_physical_energy(self):
        for seed in range(3):
            g = make_grid(48, 25)
            rng = np.random.default_rng(seed)
            vals = random_dealiased(g, rng)
            f = to_spectral(g, vals)
            phys = np.sqrt((g.Lx / g.Nx) * np.sum(vals**2 @ g.trapz_w))
            assert l2_norm(f) == pytest.approx(phys, rel=1e-12)


def random_band(g: Grid, seed: int = 0) -> np.ndarray:
    """Band rows m = 0..Nx/3 of a random real field with pinned walls."""
    band = random_rows(g, np.random.default_rng(seed))
    band[:, [0, -1]] = 0.0
    return band


class TestBand:
    """A Field is its band m = 0..Nx/3; fold and unfold change layout."""

    def test_round_trip_exact(self):
        from stripflow.gevrey import GevreyParams, make_gevrey_data

        g = make_grid(32, 33)
        full = g.unfold(random_band(g))
        assert full.shape == (32, 33)
        assert np.array_equal(full[g.dealias_mirror], np.conj(full[:g.band]))
        assert np.array_equal(g.unfold(g.fold(full)), full)
        u0, _ = make_gevrey_data(g, GevreyParams(), amplitude=1e-3, m_max=g.Nx // 3)
        assert np.array_equal(g.unfold(g.fold(u0.coeff)), u0.coeff)

    def test_band_field_reads_full_spectrum(self):
        g = make_grid(32, 33)
        band = random_band(g)
        f = Field(g, band)
        assert np.shares_memory(f.rows, band)  # a view, not a copy
        assert np.array_equal(f.coeff, g.unfold(band))
        assert np.array_equal(Field(g, g.unfold(band)).rows, band)
        with pytest.raises(ValueError, match="read-only"):
            f.coeff[1, 1] = 0.0

    @pytest.mark.parametrize("fault, match", [
        ("outside", "outside the band"), ("mirror", "conjugates"), ("mean", "conjugates")])
    def test_fold_refuses_what_it_would_drop(self, fault, match):
        g = make_grid(32, 33)
        full = g.unfold(random_band(g))
        row = {"outside": g.band, "mirror": g.Nx - 2, "mean": 0}[fault]
        c = full.copy()
        c[row, 5] += 1e-9j * np.abs(c).max()  # above the 1e-12 tolerance
        with pytest.raises(ValueError, match=match):
            g.fold(c)
        with pytest.raises(ValueError, match=match):
            Field(g, c)  # a full spectrum is only input, folded
        c = full.copy()
        c[row, 5] += 1e-14j * np.abs(c).max()  # roundoff folds
        assert g.fold(c).shape == (g.band, g.Ny)
        assert np.array_equal(Field(g, c).rows, g.fold(c))

    @pytest.mark.parametrize("op", [
        lambda f, h: (dx(f),),
        lambda f, h: (frac_dx(f, 0.5),),
        lambda f, h: (dy(f),),
        lambda f, h: (dyy(f),),
        lambda f, h: (integrate_y(f),),
        lambda f, h: (pin_walls(f),),
        lambda f, h: (f + h,),
        lambda f, h: (f - h,),
        lambda f, h: (f * 2.5, 2.5 * f),
        lambda f, h: (-f,),
        lambda f, h: (multiply(f, h),),
        lambda f, h: multiply((f, h), ((h, f), (f, f))),
        lambda f, h: (delta_k(f, 1),),
        lambda f, h: (S_k(f, 1),),
        lambda f, h: bony(f, h),
        lambda f, h: (apply_gevrey(f, 0.5, GevreyParams(), +1),),
        lambda f, h: (apply_gevrey(f, 0.5, GevreyParams(), -1),),
    ], ids=["dx", "frac_dx", "dy", "dyy", "integrate_y", "pin_walls", "add", "sub",
            "mul", "neg", "multiply", "multiply_two_outputs", "delta_k", "S_k",
            "bony", "gevrey_plus", "gevrey_minus"])
    def test_operators_return_the_band(self, op):
        g = make_grid(32, 33)
        f, h = (Field(g, random_band(g, seed)) for seed in (0, 1))
        outs = op(f, h)
        assert len(outs) >= 1
        assert all(out.rows.shape == (g.band, g.Ny) for out in outs)

    def test_state_rows_are_read_only(self):
        from stripflow.prandtl import PrandtlState

        g = make_grid(32, 33)
        s = PrandtlState(Field(g, random_band(g)), Field.zeros(g))
        with pytest.raises(ValueError, match="read-only"):
            s.u.coeff[1, 1] = 1.0
        assert np.all(s.stack[1] == 0.0)

    def test_stepping_stays_on_the_band(self, monkeypatch):
        from stripflow.gevrey import GevreyParams, make_gevrey_data
        from stripflow.hns import hns_step, make_hns_data
        from stripflow.prandtl import PrandtlState, prandtl_step

        g = make_grid(32, 33)
        u0, u1 = make_gevrey_data(g, GevreyParams(), amplitude=1e-3, m_max=4)
        states = (PrandtlState(u0, u1), make_hns_data(u0, GevreyParams(), eps=0.5))
        calls = []
        unfold = Grid.unfold
        monkeypatch.setattr(Grid, "unfold", lambda *a, **kw: calls.append(a) or unfold(*a, **kw))
        dt = 0.25 * g.dy
        for _ in range(3):
            states = (prandtl_step(states[0], dt),
                      hns_step(states[1], dt, n_proj=10**6))  # no cleanup, no energy
        assert calls == []
        for s in states:
            assert s.stack.shape == (len(s.ROWS), g.Nx // 3 + 1, g.Ny)
