"""Tests for the energy-report assembly and the decay-rate fitter."""

from functools import reduce
from typing import NamedTuple

import numpy as np
import pytest
from scipy.integrate import trapezoid

from stripflow import diagnostics
from stripflow import gevrey as gv
from stripflow import paley
from stripflow.diagnostics import decay_fit, energy_E1, energy_E_s
from stripflow.grid import Field, Grid, dy, l2_norm, to_spectral, y_density
from stripflow.hns import hns_step, make_hns_data
from stripflow.prandtl import PrandtlState, prandtl_step

P = gv.GevreyParams(a=0.5)


def density(*fields):
    """Summed mode density of the components, added left to right."""
    return reduce(np.add, map(y_density, fields))


class Record(NamedTuple):
    """A synthetic sample, read by the energies like a solver state."""

    t: float
    u: Field
    ut: Field
    v: Field | None = None
    vt: Field | None = None


def xnodes(g):
    return np.arange(g.Nx) * g.Lx / g.Nx


def band_field(g, rng, modes, amp=1.0):
    """Random smooth field supported on the given positive x-modes."""
    c = np.zeros((g.band, g.Ny), dtype=complex)
    for m in modes:
        c[m] = amp * (rng.standard_normal(g.Ny) + 1j * rng.standard_normal(g.Ny))
    return Field(g, c)


def random_samples(g, rng, times, modes=(1, 2, 3), with_pair=False):
    out = []
    for t in times:
        out.append(
            Record(
                t=float(t),
                u=band_field(g, rng, modes),
                ut=band_field(g, rng, modes, amp=0.3),
                v=band_field(g, rng, modes, amp=0.5) if with_pair else None,
                vt=band_field(g, rng, modes, amp=0.2) if with_pair else None,
            )
        )
    return out


def zero_samples(g, times, with_pair=False):
    z = Field.zeros(g)
    return [
        Record(t=float(t), u=z, ut=z, v=z if with_pair else None,
               vt=z if with_pair else None)
        for t in times
    ]


def scaled_sample(smp, c):
    return Record(
        t=smp.t,
        u=smp.u * c,
        ut=smp.ut * c,
        v=None if smp.v is None else smp.v * c,
        vt=None if smp.vt is None else smp.vt * c,
    )


def half_dx(f):
    """|D_x|^{1/2} f, the full spectrum: the multiplier |xi|^{1/2} per mode."""
    return f.grid.unfold(f.rows) * np.sqrt(f.grid.abs_xi)[:, None]


def weighted_parts(smp, p):
    """The weighted fields entering the horizontal energy, recomputed."""
    t = smp.t
    u_phi = gv.apply_gevrey(smp.u, t, p, +1)
    dyu_phi = gv.apply_gevrey(dy(smp.u), t, p, +1)
    ut_phi = gv.apply_gevrey(smp.ut, t, p, +1)
    td = gv.theta_dot(t, p)
    g = smp.u.grid
    dtu_phi = Field(g, g.fold(g.unfold(ut_phi.rows) - p.lam * td * half_dx(u_phi)))
    return u_phi, dyu_phi, ut_phi, dtu_phi, td


def oracle_E_s(samples, s, p):
    """Recompute the seven horizontal terms directly from block norms."""
    bank = paley.get_bank(samples[0].u.grid)
    ks = bank.ks
    K, a, lam = p.K, p.a, p.lam
    rows = []
    for smp in samples:
        u_phi, dyu_phi, ut_phi, dtu_phi, td = weighted_parts(smp, p)
        rows.append(
            {
                "t": smp.t,
                "td": td,
                "b1": paley.block_norms(density(u_phi, dyu_phi, ut_phi), bank),
                "bu": paley.block_norms(density(u_phi), bank),
                "b4": paley.block_norms(density(u_phi, dtu_phi, dyu_phi), bank),
                "b7": paley.block_norms(density(ut_phi, dyu_phi), bank),
            }
        )
    ts = np.array([r["t"] for r in rows])

    def sup(key, rate, sexp):
        vals = np.array([np.exp(rate * r["t"]) * r[key] for r in rows])
        return float(np.sum(2.0 ** (ks * sexp) * vals.max(axis=0)))

    def l2(key, rate, wpow, sexp):
        vals = np.array(
            [r["td"] ** wpow * (np.exp(rate * r["t"]) * r[key]) ** 2 for r in rows]
        )
        integ = trapezoid(vals, ts, axis=0)
        return float(np.sum(2.0 ** (ks * sexp) * np.sqrt(integ)))

    return {
        "term1": sup("b1", K, s),
        "term2": np.sqrt(a * K) * sup("bu", 0.75 * K, s + 0.25),
        "term3": a * K * sup("bu", 0.5 * K, s + 0.5),
        "term4": np.sqrt(lam) * l2("b4", K, 1, s + 0.25),
        "term5": lam * l2("bu", K, 2, s + 0.5),
        "term6": lam**1.5 * l2("bu", K, 3, s + 0.75),
        "term7": l2("b7", K, 0, s),
    }


def oracle_E1(samples, eps, p, decay_rates=True):
    """Recompute the four scaled-pair terms directly from block norms."""
    bank = paley.get_bank(samples[0].u.grid)
    ks = bank.ks
    K, a = p.K, p.a
    rates = (K, 0.75 * K, 0.5 * K) if decay_rates else (0.0, 0.0, 0.0)
    rows = []
    for smp in samples:
        t = smp.t
        from stripflow.grid import dx as ddx

        u_phi = gv.apply_gevrey(smp.u, t, p, +1)
        ev_phi = gv.apply_gevrey(smp.v, t, p, +1) * eps
        ut_phi = gv.apply_gevrey(smp.ut, t, p, +1)
        evt_phi = gv.apply_gevrey(smp.vt, t, p, +1) * eps
        grads = (
            ddx(u_phi) * eps,
            ddx(ev_phi) * eps,
            dy(u_phi),
            dy(ev_phi),
            ut_phi,
            evt_phi,
        )
        rows.append(
            {
                "t": t,
                "b1": paley.block_norms(density(u_phi, ev_phi, *grads), bank),
                "bp": paley.block_norms(density(u_phi, ev_phi), bank),
                "b4": paley.block_norms(density(*grads), bank),
            }
        )
    ts = np.array([r["t"] for r in rows])

    def sup(key, rate, sexp):
        vals = np.array([np.exp(rate * r["t"]) * r[key] for r in rows])
        return float(np.sum(2.0 ** (ks * sexp) * vals.max(axis=0)))

    def l2(key, rate, sexp):
        vals = np.array([(np.exp(rate * r["t"]) * r[key]) ** 2 for r in rows])
        integ = trapezoid(vals, ts, axis=0)
        return float(np.sum(2.0 ** (ks * sexp) * np.sqrt(integ)))

    return {
        "term1": sup("b1", rates[0], 0.5),
        "term2": np.sqrt(a * K) * sup("bp", rates[1], 0.75),
        "term3": a * K * sup("bp", rates[2], 1.0),
        "term4": l2("b4", rates[0], 0.5),
    }


class TestDecayFit:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 81)
        series = np.column_stack([t, np.exp(-0.5 * t)])
        rate, r2 = decay_fit(series)
        assert abs(rate + 0.5) < 1e-10
        assert r2 > 1.0 - 1e-12

    def test_constant_series(self):
        t = np.linspace(0.0, 5.0, 11)
        rate, r2 = decay_fit(np.column_stack([t, np.full_like(t, 2.5)]))
        assert abs(rate) < 1e-12
        assert r2 == 1.0

    def test_window_selects_segment(self):
        # rate -1 up to t = 5, rate -0.2 afterwards
        t = np.linspace(0.0, 10.0, 201)
        v = np.where(t <= 5.0, np.exp(-t), np.exp(-5.0) * np.exp(-0.2 * (t - 5.0)))
        rate, r2 = decay_fit(np.column_stack([t, v]), window=(6.0, 10.0))
        assert abs(rate + 0.2) < 1e-9
        assert r2 > 1.0 - 1e-12

    def test_nonpositive_values_warn_and_drop(self):
        t = np.linspace(0.0, 4.0, 41)
        v = np.exp(-0.5 * t)
        v[::7] = 0.0
        with pytest.warns(RuntimeWarning, match="nonpositive"):
            rate, _ = decay_fit(np.column_stack([t, v]))
        assert abs(rate + 0.5) < 1e-9

    def test_all_nonpositive_raises(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.warns(RuntimeWarning, match="nonpositive"):
            with pytest.raises(ValueError, match="at least two"):
                decay_fit(np.column_stack([t, np.zeros_like(t)]))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            decay_fit(np.arange(5.0))


class TestEnergyEs:
    def test_zero_run(self):
        g = Grid(16, 9)
        times = [0.0, 0.5, 1.0]
        rep = energy_E_s(zero_samples(g, times), 0.5, P)
        for arr in rep.terms.values():
            assert np.all(arr == 0.0)
        for arr in rep.point_norms.values():
            assert np.all(arr == 0.0)
        assert np.all(rep.composite == 0.0)
        assert np.all(rep.trust_horizon == 0.0)
        expected_radius = 0.5 * P.a * (1.0 + np.exp(-0.5 * P.K * np.asarray(times)))
        assert np.allclose(rep.radius, expected_radius, rtol=1e-12)
        rep.validate()

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            energy_E_s([], 0.5, P)

    # nonuniform times exercise the trapezoid; the lone t = 0 sample pins
    # the first row, which cmd_run reports as data_norm
    ORACLE_TIMES = ([0.0, 0.05, 0.1, 0.2], [0.0])

    def test_matches_blockwise_oracle(self):
        g = Grid(32, 17)
        for times in self.ORACLE_TIMES:
            rng = np.random.default_rng(7)
            samples = random_samples(g, rng, times, modes=(1, 2, 3, 5))
            rep = energy_E_s(samples, 0.5, P)
            expect = oracle_E_s(samples, 0.5, P)
            for name, val in expect.items():
                got = rep.terms[name][-1]
                assert got == pytest.approx(val, rel=1e-12), (times, name)
            assert rep.composite[-1] == pytest.approx(
                expect["term1"] + expect["term2"] + expect["term3"] + expect["term7"],
                rel=1e-12,
            ), times
            assert rep.composite_full[-1] == pytest.approx(
                sum(expect.values()), rel=1e-12), times
            assert rep.terms["term7"][0] == 0.0  # no time elapsed: no L2 mass

    def test_homogeneity(self):
        g = Grid(16, 9)
        rng = np.random.default_rng(3)
        samples = random_samples(g, rng, [0.0, 0.1, 0.2])
        c = 3.7
        rep1 = energy_E_s(samples, 0.5, P)
        rep2 = energy_E_s([scaled_sample(s, c) for s in samples], 0.5, P)
        for name in rep1.terms:
            assert np.allclose(rep2.terms[name], c * rep1.terms[name], rtol=1e-12)
        for key in rep1.point_norms:
            assert np.allclose(
                rep2.point_norms[key], c * rep1.point_norms[key], rtol=1e-12
            )

    def test_static_high_band_sup_terms_equal_initial_norms(self):
        # With a large radius and data on high x-modes, the Gevrey radius
        # shrinks faster than e^{K t} grows, so every sup-in-time term is
        # attained at t = 0 and must equal the initial weighted Besov norm.
        p2 = gv.GevreyParams(a=2.0)
        g = Grid(32, 17)
        rng = np.random.default_rng(11)
        u = band_field(g, rng, (6, 7, 8))
        zero = Field.zeros(g)
        times = np.linspace(0.0, 0.3, 4)
        samples = [Record(t=float(t), u=u, ut=zero) for t in times]
        rep = energy_E_s(samples, 0.5, p2)

        bank = paley.get_bank(g)
        u_phi0 = gv.apply_gevrey(u, 0.0, p2, +1)
        dyu_phi0 = gv.apply_gevrey(dy(u), 0.0, p2, +1)
        b1 = paley.block_norms(density(u_phi0, dyu_phi0, zero), bank)
        bu = paley.block_norms(density(u_phi0), bank)
        a, K = p2.a, p2.K
        exp1 = float(np.sum(2.0 ** (bank.ks * 0.5) * b1))
        exp2 = np.sqrt(a * K) * float(np.sum(2.0 ** (bank.ks * 0.75) * bu))
        exp3 = a * K * float(np.sum(2.0 ** (bank.ks * 1.0) * bu))
        assert rep.terms["term1"][-1] == pytest.approx(exp1, rel=1e-12)
        assert rep.terms["term2"][-1] == pytest.approx(exp2, rel=1e-12)
        assert rep.terms["term3"][-1] == pytest.approx(exp3, rel=1e-12)

    def test_weighted_derivative_identity(self):
        # d/dt of the weighted field = weighted time derivative minus
        # lam * theta_dot * |D_x|^{1/2} applied to the weighted field.
        g = Grid(16, 9)
        rng = np.random.default_rng(5)
        w = band_field(g, rng, (1, 2, 4))

        def amp(t):
            return np.exp(-0.3 * t) * np.cos(1.7 * t)

        def amp_dot(t):
            return np.exp(-0.3 * t) * (-0.3 * np.cos(1.7 * t) - 1.7 * np.sin(1.7 * t))

        t0, h = 0.7, 1e-5
        u_at = lambda t: Field(g, amp(t) * w.rows)
        num = (
            g.unfold(gv.apply_gevrey(u_at(t0 + h), t0 + h, P, +1).rows)
            - g.unfold(gv.apply_gevrey(u_at(t0 - h), t0 - h, P, +1).rows)
        ) / (2.0 * h)
        u_phi = gv.apply_gevrey(u_at(t0), t0, P, +1)
        ut_phi = gv.apply_gevrey(Field(g, amp_dot(t0) * w.rows), t0, P, +1)
        td = gv.theta_dot(t0, P)
        exact = g.unfold(ut_phi.rows) - P.lam * td * half_dx(u_phi)
        scale = np.abs(exact).max()
        assert np.abs(num - exact).max() < 1e-7 * scale

    def test_radius_and_horizon(self):
        g = Grid(16, 9)
        rng = np.random.default_rng(9)
        samples = random_samples(g, rng, [0.0, 1.0, 5.0, 20.0], modes=(2, 3))
        rep = energy_E_s(samples, 0.5, P)
        assert np.all(rep.radius > 0.5 * P.a)
        assert np.all(rep.radius <= P.a)
        assert np.all(np.diff(rep.radius) < 0.0)
        # the data band is trusted at t = 0
        assert rep.trust_horizon[0] >= 2.0

    def test_validate_catches_tampering(self):
        g = Grid(16, 9)
        rng = np.random.default_rng(13)
        rep = energy_E_s(random_samples(g, rng, [0.0, 0.1, 0.2]), 0.5, P)
        rep.terms["term7"][-1] *= 0.5
        with pytest.raises(AssertionError, match="decreased"):
            rep.validate()


class TestEnergyE1:
    def test_zero_run(self):
        g = Grid(16, 9)
        rep = energy_E1(zero_samples(g, [0.0, 0.5], with_pair=True), 0.5, P)
        for arr in rep.terms.values():
            assert np.all(arr == 0.0)
        assert np.all(rep.composite == 0.0)
        assert rep.composite_full is None

    def test_missing_pair_rejected(self):
        g = Grid(16, 9)
        with pytest.raises(ValueError, match="needs v and vt"):
            energy_E1(zero_samples(g, [0.0, 0.5]), 0.5, P)

    # the lone t = 0 sample pins the first row, which cmd_run reports as
    # data_norm
    ORACLE_TIMES = ([0.0, 0.08, 0.16], [0.0])

    def test_matches_blockwise_oracle(self):
        g = Grid(32, 17)
        eps = 0.3
        for times in self.ORACLE_TIMES:
            rng = np.random.default_rng(17)
            samples = random_samples(g, rng, times, modes=(1, 2, 4), with_pair=True)
            rep = energy_E1(samples, eps, P)
            expect = oracle_E1(samples, eps, P)
            for name, val in expect.items():
                got = rep.terms[name][-1]
                assert got == pytest.approx(val, rel=1e-12), (times, name)
            assert rep.composite[-1] == pytest.approx(
                sum(expect.values()), rel=1e-12), times
            assert rep.terms["term4"][0] == 0.0  # no time elapsed: no L2 mass

    def test_pair_terms_scale_linearly_in_eps(self):
        # with u = ut = 0 the (u, eps v) terms reduce to eps v, so term2
        # and term3 double when eps doubles
        g = Grid(16, 9)
        rng = np.random.default_rng(19)
        z = Field.zeros(g)
        v = band_field(g, rng, (1, 3))
        vt = band_field(g, rng, (1, 3), amp=0.4)
        samples = [Record(t=0.1 * i, u=z, ut=z, v=v, vt=vt) for i in range(3)]
        r1 = energy_E1(samples, 0.2, P)
        r2 = energy_E1(samples, 0.4, P)
        for name in ("term2", "term3"):
            assert np.allclose(r2.terms[name], 2.0 * r1.terms[name], rtol=1e-12)

    def test_zero_rate_variant(self):
        g = Grid(32, 17)
        rng = np.random.default_rng(23)
        samples = random_samples(g, rng, [0.0, 0.08, 0.16], modes=(1, 2, 4),
                                 with_pair=True)
        eps = 0.3
        rep0 = energy_E1(samples, eps, P, decay_rates=False)
        expect0 = oracle_E1(samples, eps, P, decay_rates=False)
        for name, val in expect0.items():
            assert rep0.terms[name][-1] == pytest.approx(val, rel=1e-12), name
        # the prefactors survive, the exponential growth does not
        rep_k = energy_E1(samples, eps, P, decay_rates=True)
        assert rep0.terms["term2"][-1] < rep_k.terms["term2"][-1]


class TestRunDiagnostics:
    def test_prandtl_report_validates(self):
        g = Grid(16, 17)
        x, y = xnodes(g), g.y
        vals = 1e-4 * np.sin(x)[:, None] * np.sin(2.0 * np.pi * y)[None, :]
        st = PrandtlState(
            u=to_spectral(g, vals),
            ut=Field.zeros(g),
        )
        dt = 0.25 * g.dy
        samples = [st]
        for i in range(40):
            st = prandtl_step(st, dt)
            if (i + 1) % 4 == 0:
                samples.append(st)
        rep = energy_E_s(samples, 0.5, P)
        rep.validate()
        assert np.all(np.isfinite(rep.composite))
        assert rep.composite[-1] > 0.0
        assert np.all(np.isfinite(rep.composite_full))

    def test_hns_report_validates(self):
        g = Grid(16, 17)
        x, y = xnodes(g), g.y
        vals = 1e-4 * np.sin(x)[:, None] * np.sin(2.0 * np.pi * y)[None, :]
        st = make_hns_data(to_spectral(g, vals), P, eps=0.5)
        dt = 0.25 * g.dy
        samples = [st]
        for i in range(40):
            st = hns_step(st, dt)
            if (i + 1) % 4 == 0:
                samples.append(st)
        rep = energy_E1(samples, 0.5, P)
        rep.validate()
        assert np.all(np.isfinite(rep.composite))
        assert rep.composite[-1] > 0.0

    def test_linear_lowest_mode_decay_rate(self):
        # the damped-wave envelope decays like e^{-t/2}; the graph norm of a
        # single linear mode must fit that rate.  The profile must be
        # mean-free: the vertical mean per x-mode is conserved, so a mode
        # carrying one relaxes to a steady state instead of decaying.
        g = Grid(8, 33)
        x, y = xnodes(g), g.y
        vals = 1e-3 * np.sin(x)[:, None] * np.sin(2.0 * np.pi * y)[None, :]
        st = PrandtlState(
            u=to_spectral(g, vals),
            ut=Field.zeros(g),
        )
        dt = 0.25 * g.dy
        series = []
        n_steps = int(round(12.0 / dt))
        for i in range(n_steps):
            st = prandtl_step(st, dt, linear=True)
            if (i + 1) % 10 == 0:
                val = np.sqrt(
                    l2_norm(st.u) ** 2 + l2_norm(st.ut) ** 2 + l2_norm(dy(st.u)) ** 2
                )
                series.append((st.t, val))
        rate, r2 = decay_fit(series, window=(1.0, 11.0))
        assert -0.55 < rate < -0.45
        assert r2 > 0.99


class TestBlockPass:
    """The energies run the samples through the term tables a block at a time."""

    TIMES = [0.0, 0.03, 0.1, 0.12, 0.2, 0.31, 0.5]

    @staticmethod
    def block_of(monkeypatch, g, n):
        # BLOCK_BYTES counts the band rows of one component per sample
        monkeypatch.setattr(diagnostics, "BLOCK_BYTES", n * 16 * g.band * g.Ny)

    @staticmethod
    def reports(samples):
        return (energy_E_s(samples, 0.5, P), energy_E1(samples, 0.3, P),
                energy_E1(samples, 0.3, P, decay_rates=False))

    def test_block_size_changes_no_bit(self, monkeypatch):
        g = Grid(32, 17)
        samples = random_samples(g, np.random.default_rng(29), self.TIMES,
                                 modes=(1, 2, 4), with_pair=True)
        runs = []
        for n in (1, 3, len(samples)):
            self.block_of(monkeypatch, g, n)
            runs.append(self.reports(samples))
        for reps in zip(*runs):
            first = reps[0]
            for rep in reps[1:]:
                assert np.array_equal(rep.times, first.times)
                assert [name for name, _ in rep.columns()] == [
                    name for name, _ in first.columns()]
                for (name, got), (_, want) in zip(rep.columns(), first.columns()):
                    assert np.array_equal(got, want), name
                for key in ("u", "ut"):
                    assert np.array_equal(rep.l2_norms[key], first.l2_norms[key])

    def test_l2_norms_are_the_unweighted_norms(self):
        g = Grid(32, 17)
        samples = random_samples(g, np.random.default_rng(31), self.TIMES,
                                 with_pair=True)
        for rep in self.reports(samples):
            for key in ("u", "ut"):
                expect = np.array([l2_norm(getattr(smp, key)) for smp in samples])
                assert np.array_equal(rep.l2_norms[key], expect), key

    def test_time_going_back_across_blocks_raises(self, monkeypatch):
        g = Grid(16, 9)
        times = [0.0, 0.1, 0.05, 0.2]  # blocks of two: 0.05 opens the second
        samples = random_samples(g, np.random.default_rng(37), times, with_pair=True)
        self.block_of(monkeypatch, g, 2)
        with pytest.raises(ValueError, match="non-monotone time sample"):
            energy_E_s(samples, 0.5, P)
        with pytest.raises(ValueError, match="non-monotone time sample"):
            energy_E1(samples, 0.3, P)

    #: Python and C calls that `sys.setprofile` saw per sample in energy_E_s
    #: over 65 prandtl states at 32x33 when the energy was assembled one
    #: sample at a time (Python 3.11, numpy 2.4)
    BEFORE = 117

    def test_energy_pass_makes_at_most_a_quarter_of_the_calls(self):
        import sys

        g = Grid(32, 33)
        u0, u1 = gv.make_gevrey_data(g, P, amplitude=1e-4, m_max=2)
        s = PrandtlState(u0, u1)
        samples = [s]
        for _ in range(64):
            s = prandtl_step(s, 0.25 * g.dy)
            samples.append(s)
        energy_E_s(samples, 0.5, P)  # warm the caches
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event in ("call", "c_call")

        sys.setprofile(count)
        try:
            energy_E_s(samples, 0.5, P)
        finally:
            sys.setprofile(None)
        assert calls <= len(samples) * self.BEFORE // 4, calls
