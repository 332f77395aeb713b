"""Tests for the spectral/finite-difference substrate."""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from stripflow import grid as sg
from stripflow.gevrey import GevreyParams, apply_gevrey
from stripflow.grid import (
    Field,
    Grid,
    dx,
    dy,
    dy_matrix,
    dyy,
    l2_norm,
    mean_y,
    multiply,
    to_physical,
    to_spectral,
)
from stripflow.paley import S_k, bony, delta_k, get_bank


def make_grid(Nx=64, Ny=33, Lx=2 * np.pi):
    return Grid(Nx, Ny, Lx)


def y_stencil(f: np.ndarray, h: float, order: int) -> np.ndarray:
    """d/dy (order 1) or d2/dy2 (order 2) along the last axis by numpy
    slicing: centered inside, one-sided second order at the walls."""
    out = np.empty_like(f)
    if order == 1:
        out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2 * h)
        out[..., 0] = (-3 * f[..., 0] + 4 * f[..., 1] - f[..., 2]) / (2 * h)
        out[..., -1] = (3 * f[..., -1] - 4 * f[..., -2] + f[..., -3]) / (2 * h)
    else:
        out[..., 1:-1] = (f[..., 2:] - 2 * f[..., 1:-1] + f[..., :-2]) / h**2
        out[..., 0] = (2 * f[..., 0] - 5 * f[..., 1] + 4 * f[..., 2] - f[..., 3]) / h**2
        out[..., -1] = (2 * f[..., -1] - 5 * f[..., -2] + 4 * f[..., -3] - f[..., -4]) / h**2
    return out


def stack(*fields: Field) -> Field:
    """One Field holding the rows of `fields` along a new leading axis."""
    return Field(fields[0].grid, np.stack([f.rows for f in fields]))


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
        assert f.rows[0, 0] == pytest.approx(1.0)
        off = f.rows.copy()
        off[0, :] = 0.0
        assert np.abs(off).max() < 1e-14

    def test_cosine_mode_coefficients(self):
        g = make_grid()
        x = g.Lx * np.arange(g.Nx) / g.Nx
        f = to_spectral(g, np.cos(2 * np.pi * x / g.Lx)[:, None] * np.ones(g.Ny))
        full = g.unfold(f.rows)
        assert full[1, 5] == pytest.approx(0.5)
        assert full[-1, 5] == pytest.approx(0.5)
        mask = np.ones(g.Nx, dtype=bool)
        mask[[1, -1]] = False
        assert np.abs(full[mask]).max() < 1e-14

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

    def test_to_spectral_refuses_complex_values(self):
        # dealiased real parts: only the guard refuses the imaginary ones
        g = make_grid(16, 9)
        with pytest.raises(ValueError, match="must be real"):
            to_spectral(g, np.full((16, 9), 1.0 + 1.0j))

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
        assert np.abs(dx(f).rows).max() < 1e-15

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
        assert np.abs(dy(f).rows).max() < 1e-12
        assert np.abs(dyy(f).rows).max() < 1e-12

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
            err = np.abs(op(f).rows[0].real - deriv(g.y)).max()
            errs.append(err)
        ratio = errs[0] / errs[1]
        assert 3.4 < ratio < 4.6

    def test_dy_matrix_matches_operator(self):
        g = make_grid(16, 17)
        f = band_limited_field(g, 4, seed=11)
        D = dy_matrix(g.Ny)
        direct = f.rows @ D.T
        assert np.abs(direct - dy(f).rows).max() < 1e-12 * np.abs(direct).max()

    def test_dense_operators_are_built_once_and_read_only(self):
        ops = sg.y_operators(17)
        assert sg.y_operators(17) is ops and ops.shape == (len(sg.Y_DENSE), 17, 17)
        assert not ops.flags.writeable and not dy_matrix(17).flags.writeable
        # column j of d/dy and d2/dy2 holds the stencil at node j, placed
        # by hand here, to the last bit and the sign of every zero
        for Ny in (9, 17, 33, 65, 129, 257):
            h, i = 1.0 / (Ny - 1), np.arange(1, Ny - 1)
            d1, s1 = np.zeros((Ny, Ny)), 1.0 / (2.0 * h)
            d1[i + 1, i], d1[i - 1, i] = s1, -s1
            d1[:3, 0], d1[-3:, -1] = [-3.0 * s1, 4.0 * s1, -s1], [s1, -4.0 * s1, 3.0 * s1]
            d2, s2 = np.zeros((Ny, Ny)), 1.0 / h**2
            d2[i, i], d2[i + 1, i], d2[i - 1, i] = -2.0 * s2, s2, s2
            d2[:4, 0] = [2.0 * s2, -5.0 * s2, 4.0 * s2, -s2]
            d2[-4:, -1] = [-s2, 4.0 * s2, -5.0 * s2, 2.0 * s2]
            ops = sg.y_operators(Ny)
            assert ops[sg.Y_DENSE.index(1)].tobytes() == d1.tobytes()
            assert ops[sg.Y_DENSE.index(2)].tobytes() == d2.tobytes()
            assert dy_matrix(Ny).T.tobytes() == d1.tobytes()

    @pytest.mark.parametrize("Ny", [9, 33, 65, 129])
    @pytest.mark.parametrize("lead", [(11,), (2, 43), (128,)])
    @pytest.mark.parametrize("order", sg.Y_DENSE)
    def test_tiles_of_every_row_count_apply_the_dense_operator(self, order, lead, Ny):
        # few rows per product take wide tiles and many take narrow ones
        # (`_y_tiles`); either way the tile loop is rows @ Op up to roundoff
        rng = np.random.default_rng(Ny)
        a = rng.standard_normal(lead + (Ny,)) + 1j * rng.standard_normal(lead + (Ny,))
        got = sg._y_apply(a, order, np.empty_like(a))
        expect = a @ sg.y_operators(Ny)[sg.Y_DENSE.index(order)]
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()

    @pytest.mark.parametrize("Ny", [9, 33, 65, 129])
    def test_tiles_of_every_row_bucket_cover_each_column_once(self, Ny):
        for order in sg.Y_DENSE:
            counts = []
            for many in (False, True):
                hits = np.zeros(2 * Ny, dtype=int)
                tiles = sg._y_tiles(Ny, order, many)
                for _, cols, _ in tiles:
                    hits[cols] += 1
                assert np.all(hits == 1), (order, many)
                counts.append(len(tiles))
            assert counts[0] <= counts[1]  # many rows: narrower tiles


class TestIntegration:
    def test_cumulative_of_one_is_y(self):
        g = make_grid(8, 33)
        f = Field(g, np.ones((g.band, g.Ny), dtype=complex))
        out = sg.y_dense(f, -1).rows
        assert np.abs(out[0].real - g.y).max() < 1e-13

    def test_full_integral_of_sin2py_vanishes(self):
        g = make_grid(8, 33)
        f = Field(g, np.tile(np.sin(2 * np.pi * g.y), (g.band, 1)).astype(complex))
        assert abs(mean_y(f)[0]) < g.dy**2

    def test_cumulative_matches_antiderivative(self):
        errs = []
        for Ny in (33, 65):
            g = make_grid(8, Ny)
            f = Field(g, np.tile(np.cos(np.pi * g.y), (g.band, 1)).astype(complex))
            out = sg.y_dense(f, -1).rows
            errs.append(np.abs(out[0].real - np.sin(np.pi * g.y) / np.pi).max())
        assert errs[0] < 1e-3
        assert 3.4 < errs[0] / errs[1] < 4.6

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_cumulative_trapezoid_is_scipys(self, dtype):
        # the int_0^y matrix of y_operators is scipy's rule applied to the
        # identity, to the last bit and the sign of every zero
        for Ny in (9, 17, 33, 65, 129, 257):
            eye = np.eye(Ny, dtype=dtype)
            expect = cumulative_trapezoid(eye, dx=1.0 / (Ny - 1), axis=-1, initial=0)
            got = sg.y_operators(Ny)[sg.Y_DENSE.index(-1)].astype(dtype)
            assert got.tobytes() == expect.tobytes()


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
        assert np.abs(prod.rows - expect.rows).max() < 1e-14

    def test_product_is_dealiased(self):
        g = make_grid(12, 9)
        x = g.Lx * np.arange(g.Nx) / g.Nx
        one_y = np.ones(g.Ny)
        f = to_spectral(g, np.cos(3 * x)[:, None] * one_y)
        prod = multiply(f, f)  # cos^2(3x) has a mode at m = 6 > 12/3
        assert np.abs(g.unfold(prod.rows)[np.abs(g.m) > 4]).max() == 0.0

    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)], ids=["single", "three", "two_axes"])
    def test_product_acts_field_by_field(self, lead):
        # stacked factors multiply field by field, bit for bit as each pair
        # alone, at unlike scales
        g = make_grid(48, 17)
        rng = np.random.default_rng(len(lead))
        n = int(np.prod(lead))
        fs, hs = (np.array([random_rows(g, rng) for _ in range(n)]).reshape(lead + (g.band, g.Ny))
                  for _ in range(2))
        fs.reshape(n, g.band, g.Ny)[-1] *= 1e-7
        got = multiply(Field(g, fs), Field(g, hs))
        assert got.rows.shape == lead + (g.band, g.Ny)
        for idx in np.ndindex(lead):
            one = multiply(Field(g, fs[idx]), Field(g, hs[idx]))
            assert np.array_equal(got.rows[idx], one.rows)

    @pytest.mark.parametrize("Ny", [17, 65, 129])  # one, two and four d/dy tiles
    def test_advection_form_matches_products(self, Ny):
        # (u d_x + v d_y)(u, v) from the packed pair equals the products of
        # its factors; Nx = 48 keeps a Nyquist row and mirror rows that
        # differ from the band rows
        g = make_grid(48, Ny)
        rng = np.random.default_rng(Ny)
        u, v = (Field(g, random_rows(g, rng)) for _ in range(2))
        got = multiply(stack(u, v))
        assert got.rows.shape == (2, g.band, g.Ny)
        for out, w in zip(got.rows, (u, v)):
            expect = multiply(u, dx(w)) + multiply(v, dy(w))
            err = np.abs(out - expect.rows).max()
            assert err <= 1e-13 * np.abs(expect.rows).max()
            assert np.abs(out[0].imag).max() <= 1e-15 * np.abs(out).max()

    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)], ids=["single", "three", "two_axes"])
    def test_advection_form_needs_a_pair(self, lead):
        g = make_grid(16, 9)
        f = Field(g, np.zeros(lead + (g.band, g.Ny), dtype=complex))
        with pytest.raises(ValueError, match="pair"):
            multiply(f)

    def test_product_needs_one_shape_on_one_grid(self):
        g = make_grid(16, 9)
        f = band_limited_field(g, 3)
        ff = stack(f, f)
        for a, b in ((ff, f), (f, ff), (stack(ff, ff), ff), (ff, stack(f, f, f)),
                     (f, band_limited_field(make_grid(32, 9), 3))):
            with pytest.raises(ValueError, match="one shape"):
                multiply(a, b)
        other = band_limited_field(make_grid(16, 9, Lx=4.0), 3)  # same shape
        with pytest.raises(ValueError, match="grid mismatch"):
            multiply(f, other)
        with pytest.raises(ValueError, match="grid mismatch"):
            multiply(ff, stack(other, other))


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

    # the advection form takes z and z_x in one inverse call over the
    # (2, Nx, Ny) work stack; a product of two fields takes one per factor
    def test_two_field_product(self, count_transforms):
        f = band_limited_field(make_grid(16, 9), 3)
        df = dx(f)
        assert count_transforms(lambda: multiply(f, df)) == {"fft": 1, "ifft": 2}

    def test_prandtl_rhs(self, count_transforms):
        from stripflow.prandtl import PrandtlState, prandtl_rhs

        g = make_grid(16, 9)
        s = PrandtlState(band_limited_field(g, 3), Field.zeros(g))
        assert count_transforms(lambda: prandtl_rhs(s)) == {"fft": 1, "ifft": 1}

    def test_hns_rhs(self, count_transforms):
        from stripflow.hns import HnsState, hns_rhs

        g = make_grid(16, 9)
        u, v = (band_limited_field(g, 3, seed) for seed in (0, 1))
        z = Field.zeros(g)
        s = HnsState(u, v, z, z.copy(), eps=0.5)
        assert count_transforms(lambda: hns_rhs(s)) == {"fft": 1, "ifft": 1}

    def test_advection_form(self, count_transforms):
        g = make_grid(16, 9)
        uv = stack(*(band_limited_field(g, 3, seed) for seed in (0, 1)))
        assert count_transforms(lambda: multiply(uv)) == {"fft": 1, "ifft": 1}


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
        full = g.unfold(u0.rows)
        assert np.array_equal(g.unfold(g.fold(full)), full)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex64])
    def test_field_converts_other_dtypes(self, dtype):
        # rows that are not complex128 are converted, not viewed
        g = make_grid(32, 33)
        band = random_band(g)
        given = (band.real if dtype is np.float64 else band).astype(dtype)
        f = Field(g, given)
        assert f.rows.dtype == np.complex128
        assert not np.shares_memory(f.rows, given)
        assert np.array_equal(f.rows, given)

    def test_band_field_reads_full_spectrum(self):
        g = make_grid(32, 33)
        band = random_band(g)
        f = Field(g, band)
        assert np.shares_memory(f.rows, band)  # a view, not a copy
        assert np.array_equal(Field(g, g.unfold(band)).rows, band)

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
        lambda f, h: (dy(f),),
        lambda f, h: (dyy(f),),
        lambda f, h: (f + h,),
        lambda f, h: (f - h,),
        lambda f, h: (f * 2.5, 2.5 * f),
        lambda f, h: (-f,),
        lambda f, h: (multiply(f, h),),
        lambda f, h: [Field(f.grid, rows) for rows in multiply(stack(f, h)).rows],
        lambda f, h: (delta_k(f, 1, get_bank(f.grid)),),
        lambda f, h: (S_k(f, 1, get_bank(f.grid)),),
        lambda f, h: bony(f, h),
        lambda f, h: (apply_gevrey(f, 0.5, GevreyParams(), +1),),
        lambda f, h: (apply_gevrey(f, 0.5, GevreyParams(), -1),),
    ], ids=["dx", "dy", "dyy", "add", "sub",
            "mul", "neg", "multiply", "multiply_two_outputs", "delta_k", "S_k",
            "bony", "gevrey_plus", "gevrey_minus"])
    def test_operators_return_the_band(self, op):
        g = make_grid(32, 33)
        f, h = (Field(g, random_band(g, seed)) for seed in (0, 1))
        outs = op(f, h)
        assert len(outs) >= 1
        assert all(out.rows.shape == (g.band, g.Ny) for out in outs)

    def test_state_fields_view_its_stack(self):
        # a Field is its grid and its band rows, nothing more; a state's
        # Fields view its one stack, into which their bands were copied
        from stripflow.prandtl import PrandtlState

        g = make_grid(32, 33)
        band = random_band(g)
        s = PrandtlState(Field(g, band), Field.zeros(g))
        assert Field.__slots__ == ("grid", "rows") and not hasattr(s.u, "coeff")
        assert not np.shares_memory(s.stack, band)
        for f, rows in zip(s.fields, s.stack):
            assert f.grid is g and np.shares_memory(f.rows, rows)
        assert np.array_equal(s.u.rows, band) and np.all(s.stack[1] == 0.0)

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
                      hns_step(states[1], dt, check=True))  # with its cleanup
        assert calls == []
        for s in states:
            assert s.stack.shape == (len(s.ROWS), g.Nx // 3 + 1, g.Ny)


class TestStackedFields:
    """A Field may hold a stack of fields, (..., band, Ny): every operator
    acts field by field, bit for bit as on each field alone."""

    LEAD = (2, 3)

    def fields(self, g: Grid) -> tuple[Field, list[list[Field]]]:
        rng = np.random.default_rng(4)
        rows = np.array([[random_band(g, int(rng.integers(1 << 30))) for _ in range(3)]
                         for _ in range(2)])
        rows[1, 2] *= 1e-7  # fields of unlike scales
        return Field(g, rows), [[Field(g, r) for r in comp] for comp in rows]

    @pytest.mark.parametrize("op", [
        dx, dy, dyy, mean_y, sg.y_density, l2_norm, to_physical,
        lambda f: apply_gevrey(f, 0.5, GevreyParams(), +1),
        lambda f: apply_gevrey(f, 0.5, GevreyParams(), -1),
        lambda f: delta_k(f, 1, get_bank(f.grid)),
        lambda f: S_k(f, 2, get_bank(f.grid)),
        lambda f: f + f * 0.5, lambda f: f - 2.0 * f, lambda f: -f,
        *(lambda f, k=k: sg.y_dense(f, k) for k in sg.Y_DENSE),
    ], ids=["dx", "dy", "dyy", "mean_y", "y_density", "l2_norm", "to_physical",
            "gevrey_plus", "gevrey_minus", "delta_k", "S_k", "add_mul", "sub_rmul", "neg",
            *(f"y_dense{k}" for k in sg.Y_DENSE)])
    def test_operator_acts_field_by_field(self, op):
        g = make_grid(32, 33)
        stacked, each = self.fields(g)
        got = op(stacked)
        got = got.rows if isinstance(got, Field) else np.asarray(got)
        assert got.shape[:2] == self.LEAD
        for i, comp in enumerate(each):
            for j, f in enumerate(comp):
                one = op(f)
                assert np.array_equal(got[i, j], one.rows if isinstance(one, Field) else one)

    @pytest.mark.parametrize("op", [
        dx, dy, dyy, *(lambda f, out=None, k=k: sg.y_dense(f, k, out) for k in sg.Y_DENSE),
    ], ids=["dx", "dy", "dyy", *(f"y_dense{k}" for k in sg.Y_DENSE)])
    def test_derivatives_write_into_out(self, op):
        g = make_grid(32, 33)
        stacked, _ = self.fields(g)
        out = np.empty_like(stacked.rows)
        got = op(stacked, out=out)
        assert got.rows is out
        assert np.array_equal(out, op(stacked).rows)

    @pytest.mark.parametrize("Ny", [33, 65, 129])  # one, two and four tiles
    @pytest.mark.parametrize("order", sg.Y_DENSE)
    def test_dense_y_operator_matches_its_stencil(self, order, Ny):
        # a BLAS product per tile: equal to the stencil by slicing or to
        # scipy's trapezoid rule up to roundoff, field by field, at every
        # scale of the stack
        g = make_grid(32, Ny)
        stacked, _ = self.fields(g)
        got = sg.y_dense(stacked, order).rows
        expect = (y_stencil(stacked.rows, g.dy, order) if order > 0
                  else cumulative_trapezoid(stacked.rows, dx=g.dy, axis=-1, initial=0))
        scale = np.abs(expect).max(axis=(-2, -1), keepdims=True)
        assert got.shape == expect.shape
        assert np.all(np.abs(got - expect) <= 1e-14 * scale)

    @pytest.mark.parametrize("order", sg.Y_DENSE)
    def test_dense_y_operator_reads_strided_rows(self, order):
        # rows whose last axis is strided are copied before the tile loop,
        # which reads a C-contiguous float view
        g = make_grid(32, 33)
        stacked, _ = self.fields(g)
        wide = np.repeat(stacked.rows, 2, axis=-1)
        strided = Field(g, wide[..., ::2])
        assert not strided.rows.flags.c_contiguous
        got = sg.y_dense(strided, order).rows
        assert np.array_equal(got, sg.y_dense(stacked, order).rows)

    @pytest.mark.parametrize("Ny", [33, 65])  # one and two tiles
    @pytest.mark.parametrize("op", [
        dy, dyy, *(lambda f, out=None, k=k: sg.y_dense(f, k, out) for k in sg.Y_DENSE),
    ], ids=["dy", "dyy", *(f"y_dense{k}" for k in sg.Y_DENSE)])
    def test_y_operators_refuse_to_write_over_their_input(self, op, Ny):
        # a later tile would read what an earlier one wrote
        g = make_grid(32, Ny)
        rows = self.fields(g)[0].rows.reshape(-1, g.band, g.Ny)  # six fields
        before = rows.copy()
        for f, out in ((rows, rows), (rows[:5], rows[1:])):
            with pytest.raises(ValueError, match="rows it reads"):
                op(Field(g, f), out=out)
        assert np.array_equal(rows, before)
        op(Field(g, rows[:3]), out=rows[3:])  # disjoint parts of one buffer

    @pytest.mark.parametrize("Ny", [33, 65])  # one and two tiles
    def test_physical_d_dy_commutes_with_the_transform(self, Ny):
        # the advection form differentiates physical values in y: d/dy of
        # the physical rows is the physical d/dy up to roundoff, and its
        # tile loop refuses to write into the values it reads
        g = make_grid(32, Ny)
        f = Field(g, random_band(g))
        vals = to_physical(f).astype(complex)
        got = sg._y_apply(vals, 1, np.empty_like(vals))
        expect = to_physical(dy(f))
        assert np.abs(got.imag).max() == 0.0
        assert np.abs(got.real - expect).max() <= 1e-13 * np.abs(expect).max()
        before = vals.copy()
        for a, out in ((vals, vals), (vals[:-1], vals[1:])):
            with pytest.raises(ValueError, match="rows it reads"):
                sg._y_apply(a, 1, out)
        assert np.array_equal(vals, before)

    def test_gevrey_floor_and_horizon_per_field(self):
        # one time per sample (the last axis), a floor and a horizon per field
        g = make_grid(32, 33)
        stacked, each = self.fields(g)
        stacked.rows[0, 1, 5:] *= 1e-14  # below the floor of its own field only
        t = np.array([0.0, 0.9, 6.0])
        rep = {}
        got = apply_gevrey(stacked, t, GevreyParams(), +1, report=rep)
        assert rep["trust_horizon"].shape == self.LEAD
        for i, comp in enumerate(each):
            for j, f in enumerate(comp):
                one = {}
                expect = apply_gevrey(f, float(t[j]), GevreyParams(), +1, report=one)
                assert np.array_equal(got.rows[i, j], expect.rows)
                assert rep["trust_horizon"][i, j] == one["trust_horizon"]

    def test_full_spectra_fold_with_their_stack(self):
        g = make_grid(32, 33)
        stacked, _ = self.fields(g)
        assert np.array_equal(g.fold(g.unfold(stacked.rows)), stacked.rows)

    @pytest.mark.parametrize("shape", [(33,), (2, 12, 33), (3, 32, 32), (5, 33, 11)])
    def test_refuses_rows_of_other_shapes(self, shape):
        g = make_grid(32, 33)
        with pytest.raises(ValueError, match="does not match grid"):
            Field(g, np.zeros(shape, dtype=complex))


class TestBandDensity:
    """Per-mode densities live on the band, a row m >= 1 counting m and -m."""

    @pytest.mark.parametrize("shape", [(32, 33), (128, 65)])
    def test_density_folds_the_full_spectrum(self, shape):
        g = make_grid(*shape)
        for seed in range(3):
            f = Field(g, random_rows(g, np.random.default_rng(seed)))
            c = g.unfold(f.rows)
            sq = c.real ** 2 + c.imag ** 2  # all Nx modes
            assert not sq[g.band:g.Nx - g.band + 1].any()  # nothing past the band
            # rows m and rows -m, each reduced as one (band, Ny) block
            plus, minus = (sq[rows] @ g.trapz_w for rows in (np.arange(g.band), g.dealias_mirror))
            folded = np.concatenate([plus[:1], plus[1:] + minus[1:]])
            assert np.array_equal(sg.y_density(f), folded)
            expect = np.sqrt(g.Lx * (sq @ g.trapz_w).sum())
            assert abs(l2_norm(f) - expect) <= 1e-15 * expect


class TestWorkBuffers:
    def test_one_buffer_per_name(self):
        g = make_grid(32, 33)
        small = g.work("t", (2, 3))
        assert g.work("t", (2, 3)) is small  # a request is a lookup
        big = g.work("t", (4, 5))
        assert len(g._work) == 1 and g._work["t"].size == 20
        assert big.dtype == np.complex128
        assert np.shares_memory(big, g.work("t", (2, 3)))
        assert np.shares_memory(big, g.work("t", (3,)))

    def test_both_solvers_share_the_buffers(self):
        # largest request per name: rk4 at the hns stack (349.4 KB),
        # multiply.f at the advection form's z and z_x (260.0 KB), multiply.g
        # at its z_y (130.0 KB), and the advection stack of the pair (u, v)
        # that both solvers share (87.3 KB); 826.7 KB at 128x65 (979.1 KB
        # while the limit system took a fused-sum product, 1,110.1 KB with
        # a stack per solver, 1,415 KB held per shape)
        from stripflow.gevrey import make_gevrey_data
        from stripflow.hns import hns_step, make_hns_data
        from stripflow.prandtl import PrandtlState, prandtl_step

        g = make_grid(128, 65)
        p = GevreyParams()
        u0, u1 = make_gevrey_data(g, p, amplitude=1e-4, m_max=4)
        s, h = PrandtlState(u0, u1), make_hns_data(u0, p, eps=0.1)
        for _ in range(2):
            s, h = prandtl_step(s, 1e-3), hns_step(h, 1e-3)
        held = sum(buf.nbytes for buf in g._work.values())
        assert held <= 827 * 1024
        assert set(g._work) == {"rk4", "advection", "multiply.f", "multiply.g"}
