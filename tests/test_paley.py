"""Tests for the dyadic-block machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripflow.grid import Field, Grid, l2_norm, multiply
from stripflow import paley
from stripflow.paley import (
    NormSeries,
    S_k,
    bernstein_check,
    besov_norm,
    block_norms,
    bony,
    build_bank,
    chi,
    delta_k,
    get_bank,
    mode_density,
    norm_series_update,
    phi,
)


def make_grid(Nx=64, Ny=17, Lx=2 * np.pi):
    return Grid(Nx, Ny, Lx)


def random_field(g, seed=0, zero_mean=True):
    """Random real field on the dealiased band (band rows, real mean row)."""
    rng = np.random.default_rng(seed)
    shape = (g.band, g.Ny)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c[0] = 0.0 if zero_mean else c[0].real
    return Field(g, c)


class TestCutoffs:
    def test_chi_plateaus(self):
        assert chi(0.0) == 1.0
        assert chi(1.0) == 1.0
        assert chi(4 / 3) == 0.0
        assert chi(2.0) == 0.0
        mid = chi(1.15)
        assert 0.0 < mid < 1.0

    def test_phi_pointwise(self):
        assert phi(0.5) == 0.0  # below support
        assert phi(2.0) == 1.0  # chi(1) - chi(2)
        assert phi(3.0) == pytest.approx(chi(1.5))
        assert phi(8 / 3) == 0.0

    def test_supports(self):
        tau = np.linspace(0.0, 4.0, 2001)
        p = phi(tau)
        assert np.all(p[(tau < 0.75) | (tau > 8 / 3)] == 0.0)
        c = chi(tau)
        assert np.all(c[tau >= 4 / 3] == 0.0)
        assert np.all(c[tau <= 1.0] == 1.0)

    def test_partition_of_unity_dense(self):
        tau = np.logspace(-3, 3, 4001)
        ks = np.arange(-15, 15)
        total = sum(phi(tau / 2.0**k) for k in ks)
        assert np.abs(total - 1.0).max() <= 1e-12

    def test_low_frequency_identity(self):
        tau = np.logspace(-2, 2, 1001)
        total = chi(tau) + sum(phi(tau / 2.0**j) for j in range(0, 12))
        assert np.abs(total - 1.0).max() <= 1e-12


class TestBank:
    def test_partition_on_grid_frequencies(self):
        for (Nx, Ny, Lx) in [(64, 17, 2 * np.pi), (128, 33, 1.0), (16, 9, 7.3)]:
            g = Grid(Nx, Ny, Lx)
            bank = build_bank(g)
            nz = g.abs_xi > 0
            total = bank.phi_samples[:, nz].sum(axis=0)
            assert np.abs(total - 1.0).max() <= 1e-12

    @given(st.integers(3, 6), st.sampled_from([1.0, 2 * np.pi, 10.0]))
    @settings(max_examples=12, deadline=None)
    def test_partition_property(self, log2nx, Lx):
        g = Grid(2**log2nx, 9, Lx)
        bank = build_bank(g)
        nz = g.abs_xi > 0
        total = bank.phi_samples[:, nz].sum(axis=0)
        assert np.abs(total - 1.0).max() <= 1e-12

    def test_range_covers_extremes(self):
        g = make_grid(128, 9)
        bank = build_bank(g)
        # every nonzero frequency is seen by at least one block
        nz = g.abs_xi > 0
        assert np.all(bank.phi_samples[:, nz].max(axis=0) > 0.1)


class TestBlockProjectors:
    def test_sum_of_blocks_rebuilds_zero_mean_field(self):
        g = make_grid()
        f = random_field(g, seed=1)
        bank = get_bank(g)
        total = Field.zeros(g)
        for k in bank.ks:
            total = total + delta_k(f, k, bank)
        assert np.abs(total.coeff - f.coeff).max() <= 1e-12 * np.abs(f.coeff).max()

    def test_single_mode_lands_in_one_block(self):
        g = make_grid(Lx=2 * np.pi)  # xi = m
        f = Field.zeros(g)
        f.rows[3, :] = 1.0  # |xi| = 3 = 1.5 * 2^1 -> block k = 1
        assert np.abs(delta_k(f, 1).coeff - f.coeff).max() < 1e-15  # phi(3/2) = 1
        for j in (-1, 3, 4):
            assert np.abs(delta_k(f, j).coeff).max() == 0.0

    def test_block_overlap_vanishes_at_distance_two(self):
        g = make_grid()
        f = random_field(g, seed=2)
        bank = get_bank(g)
        scale = np.abs(f.coeff).max()
        for k in bank.ks:
            fk = delta_k(f, k, bank)
            for j in bank.ks:
                if abs(j - k) >= 2:
                    assert np.abs(delta_k(fk, j, bank).coeff).max() <= 1e-13 * scale

    def test_low_pass_becomes_identity(self):
        g = make_grid()
        f = random_field(g, seed=3)
        bank = get_bank(g)
        out = S_k(f, bank.k_max + 2, bank)
        assert np.abs(out.coeff - f.coeff).max() <= 1e-13 * np.abs(f.coeff).max()

    def test_S_k_keeps_mean_mode(self):
        g = make_grid()
        f = random_field(g, seed=4, zero_mean=False)
        bank = get_bank(g)
        out = S_k(f, bank.k_min, bank)
        assert np.abs(out.coeff[0] - f.coeff[0]).max() < 1e-15


def oracle_besov(f, s):
    """Direct-definition dyadic sum, coded independently of the bank."""
    g = f.grid
    dens = np.array([(np.abs(f.coeff[m]) ** 2 @ g.trapz_w) for m in range(g.Nx)])
    ks = range(-40, 40)
    live = [k for k in ks if np.any(phi(g.abs_xi / 2.0**k) > 0)]
    k_min = min(live)
    total = 0.0
    for k in live:
        w = phi(g.abs_xi / 2.0**k) ** 2
        sq = float(np.sum(w * dens) * g.Lx)
        if k == k_min:
            sq += float(dens[0] * g.Lx)
        total += 2.0 ** (k * s) * np.sqrt(sq)
    return total


class TestBesovNorm:
    def test_zero_field(self):
        g = make_grid()
        assert besov_norm(Field.zeros(g), 0.5) == 0.0

    def test_homogeneity(self):
        g = make_grid()
        f = random_field(g, seed=5)
        assert besov_norm(-2.5 * f, 0.5) == pytest.approx(
            2.5 * besov_norm(f, 0.5), rel=1e-13
        )
        h = random_field(g, seed=7)
        assert besov_norm((-2.5 * f, 2.5 * h), 0.5) == pytest.approx(
            2.5 * besov_norm((f, h), 0.5), rel=1e-13
        )

    def test_single_mode_against_direct_sum(self):
        g = Grid(64, 17, Lx=0.125)  # xi_1 = 16 pi, so m = 1 has |xi| = 2 pi * 8
        f = Field.zeros(g)
        f.rows[1, :] = 1.0
        norm = l2_norm(f)
        fn = Field(g, f.coeff / norm)
        xi = g.abs_xi[1]
        for s in (0.5, 0.25):
            expect = sum(
                2.0 ** (k * s) * phi(xi / 2.0**k) for k in range(-10, 20)
            )
            assert besov_norm(fn, s) == pytest.approx(float(expect), rel=1e-12)

    @pytest.mark.parametrize("s", [-0.5, 0.0, 0.25, 0.5, 1.0])
    def test_matches_independent_oracle(self, s):
        g = make_grid()
        f = random_field(g, seed=6, zero_mean=False)
        assert besov_norm(f, s) == pytest.approx(oracle_besov(f, s), rel=1e-12)
        # a component tuple with a zero second component is the same norm
        assert besov_norm((f, Field.zeros(g)), s) == besov_norm(f, s)

    def test_frame_sandwich_constants_computed(self):
        # field supported where phi_k >= 0.1; constants from sampled overlaps
        g = make_grid(128, 17)
        bank = get_bank(g)
        k = bank.k_min + (bank.k_max - bank.k_min) // 2
        row = bank.row(k)
        keep = row >= 0.1
        f = random_field(g, seed=7)
        c = np.where(keep[:g.band, None], f.rows, 0.0)
        c[0, :] = 0.0
        fk = Field(g, c)
        s = 0.5
        lower = min(row[keep]) * 2.0 ** (k * s)
        upper = sum(
            2.0 ** (j * s) * bank.row(j)[keep].max()
            for j in range(k - 1, k + 2)
        )
        nb = besov_norm(fk, s)
        assert lower * l2_norm(fk) <= nb <= upper * l2_norm(fk)


class TestBony:
    def test_zero_factor(self):
        g = make_grid()
        f = random_field(g, seed=8)
        Tfg, Tgf, R = bony(f, Field.zeros(g))
        for piece in (Tfg, Tgf, R):
            assert np.abs(piece.coeff).max() == 0.0

    def test_constant_times_zero_mean(self):
        g = make_grid()
        gfield = random_field(g, seed=9)  # zero mean, dealiased
        c = Field.zeros(g)
        c.rows[0, :] = 2.0
        Tfg, Tgf, R = bony(c, gfield)
        rebuilt = Tfg + Tgf + R
        prod = multiply(c, gfield)
        err = l2_norm(rebuilt - prod) / l2_norm(prod)
        assert err <= 1e-10
        # the constant rides in the low-pass only: T_g c and R vanish
        assert l2_norm(Tgf) <= 1e-12 * l2_norm(prod)
        assert l2_norm(R) <= 1e-12 * l2_norm(prod)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_reconstruction_random_pairs(self, seed):
        g = Grid(128, 33)
        f = random_field(g, seed=seed)
        h = random_field(g, seed=seed + 100)
        Tfg, Tgf, R = bony(f, h)
        rebuilt = Tfg + Tgf + R
        prod = multiply(f, h)
        assert l2_norm(rebuilt - prod) <= 1e-10 * l2_norm(prod)


class TestBernstein:
    def test_single_mode_ratio(self):
        g = make_grid(Lx=2 * np.pi)
        f = Field.zeros(g)
        f.rows[3, :] = 1.0  # block 1, tau = 3 / 2 = 1.5
        rep = bernstein_check(f, 1)
        assert not rep.skipped
        assert rep.ratio == pytest.approx(1.5, rel=1e-12)

    def test_random_block_in_support_range(self):
        g = make_grid(128, 17)
        bank = get_bank(g)
        f = random_field(g, seed=13)
        for k in bank.ks:
            rep = bernstein_check(f, k, bank)
            if not rep.skipped:
                assert 0.75 <= rep.ratio <= 8 / 3

    def test_zero_field_skipped(self):
        g = make_grid()
        rep = bernstein_check(Field.zeros(g), 2)
        assert rep.skipped
        assert rep.ratio is None


class TestNormSeries:
    def test_constant_field_weight_one(self):
        g = make_grid()
        f = random_field(g, seed=14)
        acc = NormSeries(s=0.5)
        T, n = 2.0, 40
        ts = np.linspace(0.0, T, n + 1)
        for t in ts:
            norm_series_update(acc, f, t, weight_value=1.0)
        blocks = block_norms(f)
        expect = np.sum(2.0 ** (acc.bank.ks * 0.5) * np.sqrt(T) * blocks)
        assert acc.l2_in_time() == pytest.approx(float(expect), rel=1e-12)
        assert acc.sup_in_time() == pytest.approx(besov_norm(f, 0.5), rel=1e-12)

    def test_theta_dot_weight_mass(self):
        # closed-form envelope: theta_dot = sqrt(delta) e^{-K t / 2}
        K, delta = 1.0 / 6.0, 0.01
        theta = lambda t: (2 * np.sqrt(delta) / K) * (1 - np.exp(-K * t / 2))
        theta_dot = lambda t: np.sqrt(delta) * np.exp(-K * t / 2)
        g = make_grid()
        f = random_field(g, seed=15)
        acc = NormSeries(s=0.0)
        T, n = 3.0, 3000
        ts = np.linspace(0.0, T, n + 1)
        for t in ts:
            norm_series_update(acc, f, t, weight_value=theta_dot(t))
        blocks = block_norms(f)
        expect = np.sum(np.sqrt(theta(T)) * blocks)
        assert acc.l2_in_time() == pytest.approx(float(expect), rel=1e-8)

    def test_zero_field(self):
        g = make_grid()
        acc = NormSeries(s=0.5)
        for t in [0.0, 0.1, 0.2]:
            norm_series_update(acc, Field.zeros(g), t)
        assert acc.l2_in_time() == 0.0
        assert acc.sup_in_time() == 0.0

    def test_rejects_non_monotone_time(self):
        g = make_grid()
        f = random_field(g, seed=16)
        acc = NormSeries(s=0.5)
        norm_series_update(acc, f, 0.0)
        norm_series_update(acc, f, 0.1)
        with pytest.raises(ValueError, match="non-monotone"):
            norm_series_update(acc, f, 0.05)

    @given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_accumulators_nondecreasing(self, weights):
        g = Grid(16, 9)
        f = random_field(g, seed=17)
        acc = NormSeries(s=0.25, rate=1.0 / 6.0)
        prev = 0.0
        for i, w in enumerate(weights):
            norm_series_update(acc, f, 0.1 * i, w)
            cur = acc.l2_in_time()
            assert cur >= prev - 1e-15
            prev = cur

    def test_multicomponent_blocks_are_rss(self):
        g = make_grid()
        f1 = random_field(g, seed=18)
        f2 = random_field(g, seed=19)
        b1 = block_norms(f1)
        b2 = block_norms(f2)
        both = block_norms((f1, f2))
        assert np.allclose(both, np.sqrt(b1**2 + b2**2), rtol=1e-12)

    def test_multi_row_series_matches_single_rows(self):
        # rows with their own s, rate and weight equal separate series
        g = make_grid()
        bank = get_bank(g)
        fields = [random_field(g, seed=s) for s in (20, 21, 22)]
        s, rate, wpow = [0.5, 0.75, 1.0], [1.0 / 6.0, 0.125, 0.0], [0, 1, 3]
        multi = NormSeries(s=np.array(s), rate=np.array(rate), bank=bank)
        singles = [NormSeries(s=si, rate=ri, bank=bank) for si, ri in zip(s, rate)]
        for i, t in enumerate(np.linspace(0.0, 1.0, 6)):
            dens = [mode_density(2.0**-i * f) for f in fields]
            weights = [(0.3 + t) ** w for w in wpow]
            norm_series_update(multi, np.array(dens), t, weights)
            for acc, d, w in zip(singles, dens, weights):
                norm_series_update(acc, d, t, w)
        assert multi.integrals.shape == multi.maxima.shape == (3, len(bank.ks))
        for row, acc in enumerate(singles):
            assert np.array_equal(multi.integrals[row], acc.integrals)
            assert np.array_equal(multi.maxima[row], acc.maxima)
            assert multi.l2_in_time()[row] == acc.l2_in_time()
            assert multi.sup_in_time()[row] == acc.sup_in_time()


class TestDensityInput:
    """A mode density with its bank stands in for the Field it came from."""

    def test_matches_field_form_bit_for_bit(self):
        g = make_grid()
        bank = get_bank(g)
        f1 = random_field(g, seed=23, zero_mean=False)
        f2 = random_field(g, seed=24)
        for fields in (f1, (f1, f2)):
            dens = mode_density(fields)
            assert np.array_equal(block_norms(dens, bank), block_norms(fields))
            assert besov_norm(dens, 0.75, bank) == besov_norm(fields, 0.75)
            by_field = NormSeries(s=0.5, rate=0.2)
            by_dens = NormSeries(s=0.5, rate=0.2, bank=bank)
            for t in (0.0, 0.1, 0.3):
                norm_series_update(by_field, fields, t, weight_value=1.0 + t)
                norm_series_update(by_dens, dens, t, 1.0 + t)
            assert np.array_equal(by_dens.integrals, by_field.integrals)
            assert np.array_equal(by_dens.maxima, by_field.maxima)
            assert by_dens.l2_in_time() == by_field.l2_in_time()
            assert by_dens.sup_in_time() == by_field.sup_in_time()

    def test_rows_match_one_dimensional_form(self):
        g = make_grid()
        bank = get_bank(g)
        dens = np.array([mode_density(random_field(g, seed=s)) for s in (25, 26, 27)])
        blocks = block_norms(dens, bank)
        values = besov_norm(dens, 0.5, bank)
        assert blocks.shape == (3, len(bank.ks)) and values.shape == (3,)
        for row, d in enumerate(dens):
            assert np.array_equal(blocks[row], block_norms(d, bank))
            assert values[row] == besov_norm(d, 0.5, bank)

    def test_density_needs_its_bank(self):
        dens = mode_density(random_field(make_grid(), seed=28))
        with pytest.raises(ValueError, match="bank"):
            block_norms(dens)
        with pytest.raises(ValueError, match="bank"):
            norm_series_update(NormSeries(s=0.5), dens, 0.0)
