"""Tests for the Gevrey phase machinery."""

import numpy as np
import pytest

from stripflow.grid import Field, Grid, l2_norm, mean_y, to_physical, y_density
from stripflow import paley
from stripflow.gevrey import (
    GevreyParams,
    apply_gevrey,
    make_gevrey_data,
    phi,
    radius,
    theta,
    theta_dot,
)


DEFAULT = GevreyParams(a=0.5, lam=1.0)


class TestParams:
    def test_K_is_one_sixth_with_sharp_poincare(self):
        # 1/(4 (1 + 1/pi^2)) = 0.2270... > 1/6, so the min picks 1/6
        assert DEFAULT.K == pytest.approx(1.0 / 6.0, abs=0)

    def test_delta_recomputed(self):
        p = GevreyParams(a=0.5, lam=1.0)
        assert p.sqrt_delta == pytest.approx(0.5 / 24.0, rel=1e-15)
        assert p.delta == pytest.approx((0.5 / 24.0) ** 2, rel=1e-15)
        p2 = GevreyParams(a=0.5, lam=2.0)
        assert p2.delta == pytest.approx(p.delta / 4.0, rel=1e-14)

    def test_lam_times_sqrt_delta_identity(self):
        for lam in (1.0, 2.0, 7.5):
            p = GevreyParams(a=0.8, lam=lam)
            assert p.lam * p.sqrt_delta == pytest.approx(
                p.a * p.K / 4.0, rel=1e-14
            )

    def test_validation(self):
        with pytest.raises(ValueError, match="radius"):
            GevreyParams(a=-1.0)
        with pytest.raises(ValueError, match="lam"):
            GevreyParams(lam=0.5)
        with pytest.raises(ValueError, match="poincare"):
            GevreyParams(poincare=0.0)

    @pytest.mark.parametrize("name", ["a", "lam", "poincare"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            GevreyParams(**{name: value})

    def test_small_poincare_branch(self):
        p = GevreyParams(poincare=10.0)
        assert p.K == pytest.approx(1.0 / 44.0, rel=1e-15)


class TestTheta:
    def test_starts_at_zero(self):
        assert theta(0.0, DEFAULT) == 0.0

    def test_limit_is_half_radius_over_lam(self):
        for lam in (1.0, 3.0):
            p = GevreyParams(a=0.5, lam=lam)
            assert theta(1e4, p) == pytest.approx(p.a / (2 * lam), rel=1e-12)

    def test_radius_identity_closed_form(self):
        p = DEFAULT
        t = np.linspace(0.0, 30.0, 200)
        lhs = radius(t, p)
        rhs = (p.a / 2.0) * (1.0 + np.exp(-p.K * t / 2.0))
        assert np.abs(lhs - rhs).max() <= 1e-13
        assert np.all(lhs > p.a / 2.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="nonnegative"):
            theta(-0.1, DEFAULT)

    def test_rejects_nan_time(self):
        # theta_dot(nan) was nan, and apply_gevrey weighted by it silently
        nan = float("nan")
        for fn in (theta, theta_dot, radius):
            with pytest.raises(ValueError, match="nonnegative"):
                fn(nan, DEFAULT)
            with pytest.raises(ValueError, match="nonnegative"):
                fn(np.array([0.0, nan]), DEFAULT)
        g = Grid(16, 9)
        with pytest.raises(ValueError, match="nonnegative"):
            apply_gevrey(Field.zeros(g), nan, DEFAULT, +1)

    def test_matches_rk4_ode_oracle(self):
        # integrate theta_dot with classic RK4, compare to the closed form
        p = GevreyParams(a=0.5, lam=1.0)
        assert p.sqrt_delta == pytest.approx(0.0208333333, rel=1e-7)
        T, n = 5.0, 5000
        h = T / n
        th, t = 0.0, 0.0
        for _ in range(n):
            k1 = theta_dot(t, p)
            k2 = theta_dot(t + h / 2, p)
            k3 = theta_dot(t + h / 2, p)
            k4 = theta_dot(t + h, p)
            th += (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        assert abs(th - theta(T, p)) <= 1e-10

    def test_theta_ddot_identity(self):
        # theta_ddot = -(K/2) theta_dot, via centered differences
        p = DEFAULT
        h = 1e-4
        for t in (0.5, 2.0, 10.0):
            fd = (theta_dot(t + h, p) - theta_dot(t - h, p)) / (2 * h)
            assert fd == pytest.approx(-(p.K / 2.0) * theta_dot(t, p), abs=1e-8)

    def test_theta_dot_positive(self):
        t = np.linspace(0.0, 50.0, 100)
        assert np.all(theta_dot(t, DEFAULT) > 0.0)

    def test_scalar_time_matches_array_path(self):
        ts = np.concatenate([[0.0], np.geomspace(1e-6, 60.0, 40)])
        for p in (DEFAULT, GevreyParams(a=0.7, lam=3.0)):
            for fn in (theta, theta_dot, radius):
                by_array = fn(ts, p)
                for t, expect in zip(ts, by_array):
                    got = fn(float(t), p)
                    assert type(got) is float and got == expect
                    assert fn(np.asarray(t), p) == expect
        for fn in (theta, theta_dot, radius):
            with pytest.raises(ValueError, match="nonnegative"):
                fn(-1e-9, DEFAULT)
            with pytest.raises(ValueError, match="nonnegative"):
                fn(np.array([0.0, -1e-9]), DEFAULT)


class TestPhi:
    def test_zero_frequency(self):
        assert phi(1.0, 0.0, DEFAULT) == 0.0

    def test_initial_phase(self):
        xi = np.array([1.0, 4.0, 9.0])
        assert np.allclose(phi(0.0, xi, DEFAULT), 0.5 * np.sqrt(xi), rtol=1e-14)

    def test_subadditive_on_grid(self):
        p = DEFAULT
        pts = np.linspace(-50.0, 50.0, 100)
        for t in (0.0, 1.0, 8.0):
            XI, ETA = np.meshgrid(pts, pts)
            lhs = phi(t, XI, p)
            rhs = phi(t, XI - ETA, p) + phi(t, ETA, p)
            assert np.all(lhs <= rhs + 1e-12)


class TestApplyGevrey:
    def grid(self):
        return Grid(64, 17)

    def band_field(self, g, m_max=8, seed=0):
        rng = np.random.default_rng(seed)
        c = np.zeros((g.band, g.Ny), dtype=complex)
        for m in range(1, m_max + 1):
            c[m] = rng.standard_normal(g.Ny) + 1j * rng.standard_normal(g.Ny)
        return Field(g, c)

    def test_inverse_pair(self):
        g = self.grid()
        f = self.band_field(g)
        down = apply_gevrey(f, 0.7, DEFAULT, -1)
        back = apply_gevrey(down, 0.7, DEFAULT, +1)
        assert np.abs(back.coeff - f.coeff).max() <= 1e-10 * np.abs(f.coeff).max()

    def test_exact_cancellation_at_t0(self):
        g = self.grid()
        c = np.exp(-DEFAULT.a * np.sqrt(g.abs_xi[:g.band]))[:, None] * np.ones((1, g.Ny))
        f = Field(g, c.astype(complex))
        out = apply_gevrey(f, 0.0, DEFAULT, +1)
        kept = np.abs(out.coeff) > 0
        assert np.abs(out.coeff[kept] - 1.0).max() <= 1e-12

    def test_weighted_norm_shrinks_in_time(self):
        g = self.grid()
        f = self.band_field(g)
        n0 = l2_norm(apply_gevrey(f, 0.0, DEFAULT, +1))
        n2 = l2_norm(apply_gevrey(f, 2.0, DEFAULT, +1))
        assert n2 < n0

    def test_floor_zeroes_tiny_modes(self):
        g = self.grid()
        f = self.band_field(g, m_max=4, seed=1)
        scale = np.abs(f.rows).max()
        f.rows[9, :] = 1e-14 * scale
        rep = {}
        out = apply_gevrey(f, 0.0, DEFAULT, +1, report=rep)
        assert np.abs(out.coeff[9]).max() == 0.0

    @staticmethod
    def floor_then_weight(f, t, p, report):
        """The amplifying branch as first written: floor a copy, then weight."""
        g = f.grid
        ph = phi(t, g.abs_xi, p)
        c = f.coeff.copy()
        scale = np.abs(c).max()
        if scale > 0.0:
            c[np.abs(c) < 1e-13 * scale] = 0.0
        mode_mag = np.abs(c).max(axis=1)
        with np.errstate(divide="ignore"):
            level = ph + np.log(
                np.where(mode_mag > 0, mode_mag, np.nan) / max(scale, 1e-300))
        trusted = g.abs_xi[np.nan_to_num(level, nan=-np.inf) > -3.0]
        report["trust_horizon"] = float(trusted.max()) if trusted.size else 0.0
        return c * np.exp(ph)[:, None]

    def test_matches_floor_then_weight(self):
        g = self.grid()
        u0, _ = make_gevrey_data(g, DEFAULT, amplitude=1e-3, m_max=12)
        f = self.band_field(g, m_max=6, seed=2)
        scale = np.abs(f.rows).max()
        f.rows[7:10] = 3e-14 * scale  # whole modes under the floor
        f.rows[3, ::2] = 1e-15 * scale  # single entries under the floor
        cases = [u0, f, Field.zeros(g), -f]
        for field in cases:
            for t in (0.0, 0.9, 6.0):
                rep, expect_rep = {}, {}
                out = apply_gevrey(field, t, DEFAULT, +1, report=rep)
                expect = self.floor_then_weight(field, t, DEFAULT, expect_rep)
                assert np.array_equal(out.coeff, expect)
                assert np.array_equal(apply_gevrey(field, t, DEFAULT, +1).coeff, expect)
                assert rep == expect_rep

    def test_trust_horizon_on_gevrey_data(self):
        g = self.grid()
        p = DEFAULT
        u0, _ = make_gevrey_data(g, p, amplitude=1e-3, m_max=8)
        rep = {}
        apply_gevrey(u0, 0.0, p, +1, report=rep)
        # perfect Gevrey data: every carried mode sits above the -3 level
        assert rep["trust_horizon"] == pytest.approx(g.abs_xi[8], rel=1e-14)

    def test_overflow_guard(self):
        g = Grid(1024, 9, Lx=0.01)  # |xi|_max ~ 3.2e5, sqrt ~ 567
        f = Field.zeros(g)
        f.rows[1, :] = 1.0
        with pytest.raises(OverflowError, match="overflow"):
            apply_gevrey(f, 0.0, GevreyParams(a=2.0), +1)

    def test_overflow_guard_reads_the_band(self):
        # the Nyquist weight e^{796.2} would overflow, but no Field holds
        # that mode: the largest band weight is e^{649.8}
        g = Grid(1024, 9, Lx=0.0203)
        f = Field.zeros(g)
        f.rows[1, :] = 1.0
        p = GevreyParams(a=2.0)
        assert phi(0.0, g.abs_xi, p).max() > 700.0
        out = apply_gevrey(f, 0.0, p, +1)
        assert np.all(np.isfinite(out.rows))
        assert out.rows[1, 0] == pytest.approx(np.exp(phi(0.0, g.xi[1], p)), rel=1e-14)

    def test_block_of_rows_matches_each_field(self):
        # a stacked Field with leading axes (component, sample), one time
        # per sample: each field bit-identical to its own, floors and trust
        # horizons per field; the input rows are left as they were unless
        # they are the output
        g = self.grid()
        u0, _ = make_gevrey_data(g, DEFAULT, amplitude=1e-3, m_max=12)
        f = self.band_field(g, m_max=6, seed=2)
        f.rows[7:10] = 3e-14 * np.abs(f.rows).max()
        fields = [[u0, f, Field.zeros(g)], [-f, u0 * 1e-9, f]]
        t = np.array([0.0, 0.9, 6.0])
        for sign in (+1, -1):
            rows = np.array([[fld.rows for fld in comp] for comp in fields])
            before = rows.copy()
            rep = {}
            out = apply_gevrey(Field(g, rows), t, DEFAULT, sign, report=rep).rows
            assert np.array_equal(rows, before)
            # weighted in place into its own rows: the same numbers
            in_place = apply_gevrey(Field(g, rows), t, DEFAULT, sign, out=rows).rows
            assert in_place is rows and np.array_equal(rows, out)
            for i, comp in enumerate(fields):
                for j, fld in enumerate(comp):
                    one = {}
                    expect = apply_gevrey(fld, float(t[j]), DEFAULT, sign, report=one)
                    assert np.array_equal(out[i, j], expect.rows)
                    if sign > 0:
                        assert rep["trust_horizon"][i, j] == one["trust_horizon"]

    def test_field_form_keeps_its_input(self):
        g = self.grid()
        f = self.band_field(g)
        before = f.rows.copy()
        for sign in (+1, -1):
            apply_gevrey(f, 0.3, DEFAULT, sign)
            assert np.array_equal(f.rows, before)

    def test_bad_sign_rejected(self):
        g = self.grid()
        with pytest.raises(ValueError, match="sign"):
            apply_gevrey(Field.zeros(g), 0.0, DEFAULT, 2)


class TestMakeGevreyData:
    def test_compatibility_everywhere(self):
        g = Grid(64, 33)
        u0, u1 = make_gevrey_data(g, DEFAULT, amplitude=1e-2, m_max=6)
        assert np.abs(mean_y(u0)).max() <= 1e-14 * 1e-2
        assert np.abs(u1.coeff).max() == 0.0
        vals = to_physical(u0)
        assert np.abs(vals @ g.trapz_w).max() <= 1e-16

    def test_walls_exactly_zero(self):
        g = Grid(64, 33)
        u0, _ = make_gevrey_data(g, DEFAULT, amplitude=1e-2, m_max=6)
        assert np.abs(u0.coeff[:, 0]).max() == 0.0
        assert np.abs(u0.coeff[:, -1]).max() == 0.0

    def test_weighted_besov_linear_in_amplitude(self):
        g = Grid(64, 33)
        p = DEFAULT
        n = []
        for c in (1e-3, 2e-3):
            u0, _ = make_gevrey_data(g, p, amplitude=c, m_max=6)
            w = apply_gevrey(u0, 0.0, p, +1)
            n.append(paley.besov_norm(y_density(w), 0.5, paley.get_bank(g)))
        assert n[1] == pytest.approx(2.0 * n[0], rel=1e-12)

    @pytest.mark.parametrize("Nx", [32, 64])
    @pytest.mark.parametrize("top", ["one", "band"])
    def test_band_equals_full_spectrum(self, Nx, top):
        # the full spectrum as it was built by hand: rows m and -m alike
        g = Grid(Nx, 33)
        m_max = 1 if top == "one" else Nx // 3
        u0, u1 = make_gevrey_data(g, DEFAULT, amplitude=3e-3, m_max=m_max)
        assert u0.rows.shape == u1.rows.shape == (Nx // 3 + 1, 33)
        prof = np.sin(2.0 * np.pi * g.y)
        prof[0] = prof[-1] = 0.0
        full = np.zeros((Nx, 33), dtype=complex)
        for m in range(1, m_max + 1):
            w = 3e-3 * np.exp(-DEFAULT.a * np.sqrt(g.xi[m]))
            full[m], full[-m] = w * prof, w * prof
        assert np.array_equal(u0.coeff, full)
        assert np.array_equal(u1.coeff, np.zeros_like(full))

    def test_rejects_m_max_off_the_band(self):
        g = Grid(64, 33)
        message = r"m_max must lie in \[1, Nx/3\] = \[1, 21\], got 22"
        with pytest.raises(ValueError, match=message):
            make_gevrey_data(g, DEFAULT, m_max=22)
        with pytest.raises(ValueError, match="m_max"):
            make_gevrey_data(g, DEFAULT, m_max=32)
        with pytest.raises(ValueError, match="m_max"):
            make_gevrey_data(g, DEFAULT, m_max=0)
