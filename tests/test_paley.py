"""Tests for the dyadic-block machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripflow.grid import Field, Grid, l2_norm, multiply, y_density
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
        assert np.abs(total.rows - f.rows).max() <= 1e-12 * np.abs(f.rows).max()

    def test_single_mode_lands_in_one_block(self):
        g = make_grid(Lx=2 * np.pi)  # xi = m
        f = Field.zeros(g)
        f.rows[3, :] = 1.0  # |xi| = 3 = 1.5 * 2^1 -> block k = 1
        bank = get_bank(g)
        assert np.abs(delta_k(f, 1, bank).rows - f.rows).max() < 1e-15  # phi(3/2) = 1
        for j in (-1, 3, 4):
            assert np.abs(delta_k(f, j, bank).rows).max() == 0.0

    def test_block_overlap_vanishes_at_distance_two(self):
        g = make_grid()
        f = random_field(g, seed=2)
        bank = get_bank(g)
        scale = np.abs(f.rows).max()
        for k in bank.ks:
            fk = delta_k(f, k, bank)
            for j in bank.ks:
                if abs(j - k) >= 2:
                    assert np.abs(delta_k(fk, j, bank).rows).max() <= 1e-13 * scale

    def test_low_pass_becomes_identity(self):
        g = make_grid()
        f = random_field(g, seed=3)
        bank = get_bank(g)
        out = S_k(f, bank.k_max + 2, bank)
        assert np.abs(out.rows - f.rows).max() <= 1e-13 * np.abs(f.rows).max()

    def test_S_k_keeps_mean_mode(self):
        g = make_grid()
        f = random_field(g, seed=4, zero_mean=False)
        bank = get_bank(g)
        out = S_k(f, bank.k_min, bank)
        assert np.abs(out.rows[0] - f.rows[0]).max() < 1e-15


def oracle_besov(f, s):
    """Direct-definition dyadic sum, coded independently of the bank."""
    g = f.grid
    full = g.unfold(f.rows)
    dens = np.array([(np.abs(full[m]) ** 2 @ g.trapz_w) for m in range(g.Nx)])
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
        assert besov_norm(y_density(Field.zeros(g)), 0.5, get_bank(g)) == 0.0

    def test_homogeneity(self):
        g = make_grid()
        bank = get_bank(g)
        f = random_field(g, seed=5)
        assert besov_norm(y_density(-2.5 * f), 0.5, bank) == pytest.approx(
            2.5 * besov_norm(y_density(f), 0.5, bank), rel=1e-13
        )
        h = random_field(g, seed=7)
        pair = y_density(-2.5 * f) + y_density(2.5 * h)
        assert besov_norm(pair, 0.5, bank) == pytest.approx(
            2.5 * besov_norm(y_density(f) + y_density(h), 0.5, bank), rel=1e-13
        )

    def test_single_mode_against_direct_sum(self):
        g = Grid(64, 17, Lx=0.125)  # xi_1 = 16 pi, so m = 1 has |xi| = 2 pi * 8
        f = Field.zeros(g)
        f.rows[1, :] = 1.0
        norm = l2_norm(f)
        fn = Field(g, f.rows / norm)
        xi = g.abs_xi[1]
        for s in (0.5, 0.25):
            expect = sum(
                2.0 ** (k * s) * phi(xi / 2.0**k) for k in range(-10, 20)
            )
            assert besov_norm(y_density(fn), s, get_bank(g)) == pytest.approx(
                float(expect), rel=1e-12)

    @pytest.mark.parametrize("s", [-0.5, 0.0, 0.25, 0.5, 1.0])
    def test_matches_independent_oracle(self, s):
        g = make_grid()
        bank = get_bank(g)
        f = random_field(g, seed=6, zero_mean=False)
        norm = besov_norm(y_density(f), s, bank)
        assert norm == pytest.approx(oracle_besov(f, s), rel=1e-12)
        # adding a zero component's density gives the same norm
        assert besov_norm(y_density(f) + y_density(Field.zeros(g)), s, bank) == norm

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
        nb = besov_norm(y_density(fk), s, bank)
        assert lower * l2_norm(fk) <= nb <= upper * l2_norm(fk)


class TestBony:
    def test_zero_factor(self):
        g = make_grid()
        f = random_field(g, seed=8)
        Tfg, Tgf, R = bony(f, Field.zeros(g))
        for piece in (Tfg, Tgf, R):
            assert np.abs(piece.rows).max() == 0.0

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
        rep = bernstein_check(f, 1, get_bank(g))
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
        rep = bernstein_check(Field.zeros(g), 2, get_bank(g))
        assert rep.skipped
        assert rep.ratio is None


class TestNormSeries:
    def test_constant_field_weight_one(self):
        g = make_grid()
        bank = get_bank(g)
        d = y_density(random_field(g, seed=14))
        acc = NormSeries(s=0.5, bank=bank)
        T, n = 2.0, 40
        ts = np.linspace(0.0, T, n + 1)
        norm_series_update(acc, np.array([d] * (n + 1)), ts, weight_value=1.0)
        blocks = block_norms(d, bank)
        expect = np.sum(2.0 ** (bank.ks * 0.5) * np.sqrt(T) * blocks)
        assert acc.l2_in_time()[-1] == pytest.approx(float(expect), rel=1e-12)
        assert acc.sup_in_time()[-1] == pytest.approx(besov_norm(d, 0.5, bank), rel=1e-12)

    def test_theta_dot_weight_mass(self):
        # closed-form envelope: theta_dot = sqrt(delta) e^{-K t / 2}
        K, delta = 1.0 / 6.0, 0.01
        theta = lambda t: (2 * np.sqrt(delta) / K) * (1 - np.exp(-K * t / 2))
        theta_dot = lambda t: np.sqrt(delta) * np.exp(-K * t / 2)
        g = make_grid()
        bank = get_bank(g)
        d = y_density(random_field(g, seed=15))
        acc = NormSeries(s=0.0, bank=bank)
        T, n = 3.0, 3000
        ts = np.linspace(0.0, T, n + 1)
        norm_series_update(acc, np.array([d] * (n + 1)), ts, weight_value=theta_dot(ts))
        blocks = block_norms(d, bank)
        expect = np.sum(np.sqrt(theta(T)) * blocks)
        assert acc.l2_in_time()[-1] == pytest.approx(float(expect), rel=1e-8)

    def test_zero_field(self):
        g = make_grid()
        acc = NormSeries(s=0.5, bank=get_bank(g))
        for t in [0.0, 0.1, 0.2]:
            norm_series_update(acc, y_density(Field.zeros(g))[None], [t])
        assert acc.l2_in_time() == 0.0
        assert acc.sup_in_time() == 0.0

    def test_rejects_non_monotone_time(self):
        g = make_grid()
        d = y_density(random_field(g, seed=16))
        acc = NormSeries(s=0.5, bank=get_bank(g))
        norm_series_update(acc, d[None], [0.0])
        norm_series_update(acc, d[None], [0.1])
        with pytest.raises(ValueError, match="non-monotone"):
            norm_series_update(acc, d[None], [0.05])

    @given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_accumulators_nondecreasing(self, weights):
        g = Grid(16, 9)
        d = y_density(random_field(g, seed=17))
        acc = NormSeries(s=0.25, bank=get_bank(g), rate=1.0 / 6.0)
        prev = 0.0
        for i, w in enumerate(weights):
            norm_series_update(acc, d[None], [0.1 * i], w)
            cur = acc.l2_in_time()[-1]
            assert cur >= prev - 1e-15
            prev = cur

    def test_multicomponent_blocks_are_rss(self):
        g = make_grid()
        bank = get_bank(g)
        d1 = y_density(random_field(g, seed=18))
        d2 = y_density(random_field(g, seed=19))
        b1 = block_norms(d1, bank)
        b2 = block_norms(d2, bank)
        both = block_norms(d1 + d2, bank)
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
            dens = [y_density(2.0**-i * f) for f in fields]
            weights = [(0.3 + t) ** w for w in wpow]
            norm_series_update(multi, np.array(dens)[None], [t], [weights])
            for acc, d, w in zip(singles, dens, weights):
                norm_series_update(acc, d[None], [t], w)
        assert multi.integrals.shape == multi.maxima.shape == (1, 3, len(bank.ks))
        for row, acc in enumerate(singles):
            assert np.array_equal(multi.integrals[:, row], acc.integrals)
            assert np.array_equal(multi.maxima[:, row], acc.maxima)
            assert multi.l2_in_time()[:, row] == acc.l2_in_time()
            assert multi.sup_in_time()[:, row] == acc.sup_in_time()


    def test_blocks_match_sample_by_sample_bit_for_bit(self):
        # blocks of 3 and 4 samples give the running values of one sample
        # at a time, at every sample, and carry on across blocks
        g = make_grid()
        bank = get_bank(g)
        fields = [random_field(g, seed=s) for s in (23, 24)]
        ts = np.array([0.0, 0.05, 0.2, 0.21, 0.4, 0.7, 0.75, 1.0])
        dens = np.array([[y_density(2.0**-i * f) for f in fields] for i in range(len(ts))])
        weights = np.array([[1.0, 0.3 + t] for t in ts])
        kw = dict(s=np.array([0.5, 0.75]), rate=np.array([1.0 / 6.0, 0.125]), bank=bank)
        single, rows = NormSeries(**kw), []
        for i in range(len(ts)):
            norm_series_update(single, dens[i:i + 1], ts[i:i + 1], weights[i:i + 1])
            rows.append((single.integrals[0], single.maxima[0],
                         single.l2_in_time()[0], single.sup_in_time()[0]))
        for cuts in ([3, 3, 2], [4, 4]):
            block, lo = NormSeries(**kw), 0
            for n in cuts:
                sl = slice(lo, lo + n)
                norm_series_update(block, dens[sl], ts[sl], weights[sl])
                for k, (integ, maxi, l2, sup) in enumerate(rows[sl]):
                    assert np.array_equal(block.integrals[k], integ)
                    assert np.array_equal(block.maxima[k], maxi)
                    assert np.array_equal(block.l2_in_time()[k], l2)
                    assert np.array_equal(block.sup_in_time()[k], sup)
                lo += n
            assert block.last_t == single.last_t

    def test_block_rejects_time_going_back(self):
        g = make_grid()
        d = y_density(random_field(g, seed=25))
        acc = NormSeries(s=0.5, bank=get_bank(g))
        norm_series_update(acc, np.array([d, d]), np.array([0.0, 0.1]))
        with pytest.raises(ValueError, match="non-monotone time sample: t=0.05 after t=0.1"):
            norm_series_update(acc, np.array([d, d]), np.array([0.05, 0.2]))
        with pytest.raises(ValueError, match="non-monotone time sample: t=0.15 after t=0.2"):
            norm_series_update(acc, np.array([d, d, d]), np.array([0.2, 0.15, 0.3]))
        assert acc.last_t == 0.1  # a refused block leaves the series as it was
        with pytest.raises(ValueError, match="non-monotone"):
            norm_series_update(NormSeries(s=0.5, bank=get_bank(g)), np.array([d, d]),
                               np.array([0.1, 0.1]))


class TestDensityInput:
    """A 2-D density gives one row of results per row."""

    def test_rows_match_one_dimensional_form(self):
        g = make_grid()
        bank = get_bank(g)
        dens = np.array([y_density(random_field(g, seed=s)) for s in (25, 26, 27)])
        blocks = block_norms(dens, bank)
        values = besov_norm(dens, 0.5, bank)
        assert blocks.shape == (3, len(bank.ks)) and values.shape == (3,)
        for row, d in enumerate(dens):
            assert np.array_equal(blocks[row], block_norms(d, bank))
            assert values[row] == besov_norm(d, 0.5, bank)
