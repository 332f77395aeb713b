"""Horizontal dyadic-block machinery: smooth cutoffs, block projectors,
Besov norms, time-integrated (Chemin-Lerner style) norm accumulators,
paraproduct decomposition, and Bernstein-ratio checks.

All localization happens in the x frequency only; y is untouched.  The
cutoff pair (chi, phi) is built from the classical smooth bump

    h(t) = exp(-1/t) for t > 0, else 0,
    g(t) = h(t) / (h(t) + h(1 - t))        (smooth 0 -> 1 step on [0, 1]),
    chi(tau) = 1 - g(3 (tau - 1)),          (1 for tau <= 1, 0 for tau >= 4/3)
    phi(tau) = chi(tau / 2) - chi(tau),     (supported in [3/4, 8/3])

so the dyadic sums telescope exactly: for every tau > 0,

    sum_k phi(2^{-k} tau) = 1    and    chi(tau) + sum_{j>=0} phi(2^{-j} tau) = 1.

Conventions on the periodic strip:
  * block projectors delta_k never touch the m = 0 (x-mean) mode;
  * besov_norm and block_norms fold the m = 0 energy into the lowest
    block k_min, so solver fields with tiny means get finite norms;
  * the paraproduct reconstruction identity on the torus therefore reads
    T_f g + T_g f + R(f, g) = f g - mean_x(f) mean_x(g); it is exact
    (to rounding) for zero-x-mean dealiased fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .grid import Field, Grid, dx, l2_norm, multiply

__all__ = [
    "chi",
    "phi",
    "DyadicBank",
    "get_bank",
    "delta_k",
    "S_k",
    "block_norms",
    "besov_norm",
    "bony",
    "BernsteinReport",
    "bernstein_check",
    "NormSeries",
    "norm_series_update",
]


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """g(t): C^infinity, 0 for t <= 0, 1 for t >= 1, strictly monotone between."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        ha = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)
        hb = np.where(t < 1.0, np.exp(-1.0 / np.where(t < 1.0, 1.0 - t, 1.0)), 0.0)
    return ha / (ha + hb)


def chi(tau):
    """Low-frequency cutoff: 1 for tau <= 1, 0 for tau >= 4/3, smooth between."""
    return 1.0 - _smooth_step(3.0 * (np.asarray(tau, dtype=float) - 1.0))


def phi(tau):
    """Dyadic bump chi(tau/2) - chi(tau), supported in [3/4, 8/3]."""
    tau = np.asarray(tau, dtype=float)
    return chi(tau / 2.0) - chi(tau)


@dataclass
class DyadicBank:
    """Cutoffs for one grid: phi/chi evaluated at its band frequencies
    xi_m, m = 0..Nx/3, the rows a Field holds (`get_bank` builds it).

    k runs over the contiguous range [k_min, k_max] of blocks that see any
    nonzero band frequency; row i of the sample arrays is block k_min + i.
    """

    grid: Grid
    k_min: int
    k_max: int
    phi_samples: np.ndarray  # (K, band): phi(2^{-k} xi_m)
    chi_samples: np.ndarray  # (K, band): chi(2^{-k} xi_m)
    phi_sq: np.ndarray  # (K, band): phi_samples squared

    @property
    def ks(self) -> np.ndarray:
        return np.arange(self.k_min, self.k_max + 1)

    def weights(self, s) -> np.ndarray:
        """2^{ks} per block, a row per value if s is an array."""
        return 2.0 ** (self.ks * np.asarray(s)[..., None])

    def besov_sum(self, per_block: np.ndarray, weights: np.ndarray):
        """sum_k weights[..., k] per_block[..., k]: a float, or one per row."""
        out = (weights * per_block).sum(axis=-1)
        return float(out) if out.ndim == 0 else out

    def row(self, k: int) -> np.ndarray:
        """phi(2^{-k} xi_m) on the band for any integer k (zeros outside range)."""
        if self.k_min <= k <= self.k_max:
            return self.phi_samples[k - self.k_min]
        return phi(self.grid.band_xi / 2.0**k)

    def chi_row(self, k: int) -> np.ndarray:
        if self.k_min <= k <= self.k_max:
            return self.chi_samples[k - self.k_min]
        return chi(self.grid.band_xi / 2.0**k)


@cache
def get_bank(grid: Grid) -> DyadicBank:
    """The dyadic cutoffs at a grid's band frequencies, built once per grid
    (read-only after); equal Grids share it."""
    xi = grid.band_xi  # 0 = xi_0 < xi_1 < ... < xi_{Nx/3}
    # phi(2^{-k} tau) != 0 requires 2^k in [3 tau / 8, 4 tau / 3]
    k_candidates = np.arange(
        int(np.floor(np.log2(3.0 * xi[1] / 8.0))) - 1,
        int(np.ceil(np.log2(4.0 * xi[-1] / 3.0))) + 2,
    )
    rows = [phi(xi / 2.0**k) for k in k_candidates]
    live = [i for i, r in enumerate(rows) if np.any(r > 0.0)]
    k_min = int(k_candidates[live[0]])
    k_max = int(k_candidates[live[-1]])
    phi_samples = np.array(rows[live[0] : live[-1] + 1])
    chi_samples = np.array([chi(xi / 2.0**k) for k in range(k_min, k_max + 1)])
    return DyadicBank(grid, k_min, k_max, phi_samples, chi_samples, phi_samples**2)


def delta_k(f: Field, k: int, bank: DyadicBank) -> Field:
    """Dyadic block projector: multiply coefficients by phi(2^{-k}|xi|)."""
    return Field(f.grid, f.rows * bank.row(k)[:, None])


def S_k(f: Field, k: int, bank: DyadicBank) -> Field:
    """Low-pass up to block k: multiply by chi(2^{-k}|xi|) (keeps the mean)."""
    return Field(f.grid, f.rows * bank.chi_row(k)[:, None])


def block_norms(dens: np.ndarray, bank: DyadicBank) -> np.ndarray:
    """Per-block L2 norms ||delta_k f||, m = 0 energy folded into k_min.

    `dens` is f's `grid.y_density`, summed over the components of a vector
    field (they combine in L2 inside each block); a 2-D (rows, Nx//3 + 1)
    density gives a row of blocks per row.
    """
    # a gemv per row keeps each row bit-identical to its 1-D form (a GEMM would not)
    sq = np.matmul(bank.phi_sq, dens[..., None])[..., 0]
    sq[..., 0] += dens[..., 0]  # fold the x-mean mode into block k_min
    return np.sqrt(bank.grid.Lx * sq)


def besov_norm(dens: np.ndarray, s, bank: DyadicBank):
    """l1-over-blocks Besov norm sum_k 2^{ks} ||delta_k f||_{L2} of a density
    (one value per row of a 2-D density)."""
    return bank.besov_sum(block_norms(dens, bank), bank.weights(s))


def bony(f: Field, g: Field):
    """Paraproduct split of f g into (T_f g, T_g f, R(f, g)).

    T_f g = sum_k S_{k-1} f * delta_k g, and R collects the diagonal
    interactions sum_k delta_k f * (delta_{k-1} + delta_k + delta_{k+1}) g.
    All products are dealiased.  On the torus the three pieces rebuild
    f g - mean_x(f) mean_x(g) exactly for dealiased inputs.
    """
    f._check_same_grid(g)
    bank = get_bank(f.grid)
    Tfg = Field.zeros(f.grid)
    Tgf = Field.zeros(f.grid)
    R = Field.zeros(f.grid)
    blocks_f = {k: delta_k(f, k, bank) for k in range(bank.k_min - 1, bank.k_max + 2)}
    blocks_g = {k: delta_k(g, k, bank) for k in range(bank.k_min - 1, bank.k_max + 2)}
    for k in bank.ks:
        Tfg = Tfg + multiply(S_k(f, k - 1, bank), blocks_g[k])
        Tgf = Tgf + multiply(S_k(g, k - 1, bank), blocks_f[k])
        tilde = blocks_g[k - 1] + blocks_g[k] + blocks_g[k + 1]
        R = R + multiply(blocks_f[k], tilde)
    return Tfg, Tgf, R


@dataclass
class BernsteinReport:
    k: int
    ratio: float | None  # ||dx delta_k f|| / (2^k ||delta_k f||)
    skipped: bool


def bernstein_check(f: Field, k: int, bank: DyadicBank) -> BernsteinReport:
    """Empirical Bernstein ratio for the block-k piece of f.

    The ratio is the mean horizontal frequency of the block in units of
    2^k; the cutoff support pins it inside [3/4, 8/3].  A spectrally
    empty block is reported as skipped.
    """
    blk = delta_k(f, k, bank)
    l2 = l2_norm(blk)
    if l2 <= 1e-13 * max(l2_norm(f), 1e-300):
        return BernsteinReport(k, None, True)
    ratio = l2_norm(dx(blk)) / (2.0**k * l2)
    if not (0.75 <= ratio <= 8.0 / 3.0):
        raise AssertionError(
            f"block-{k} frequency ratio {ratio:.6f} escaped [3/4, 8/3]"
        )
    return BernsteinReport(k, float(ratio), False)


@dataclass
class NormSeries:
    """Running dyadic-block accumulators for time-weighted norms.

    Tracks, per block k, the trapezoid-in-time integral of

        weight(t) * (e^{rate t} ||delta_k a(t)||_{L2})^2

    and the running max of e^{rate t} ||delta_k a(t)||, from which the
    time-integrated (l2-in-time) and sup-in-time block norms are read off
    as sum_k 2^{ks} sqrt(integral_k) resp. sum_k 2^{ks} max_k, with the
    blocks of `bank`.  Array `s`, `rate` and weight hold one series per row.
    `integrals` and `maxima` hold the running values at each sample of the
    last block fed, so the readouts give one value (or row) per sample.
    """

    s: float | np.ndarray
    bank: DyadicBank
    rate: float | np.ndarray = 0.0
    integrals: np.ndarray | None = None
    maxima: np.ndarray | None = None
    last_t: float | None = None
    _last_weighted_sq: np.ndarray | None = None
    _weights: np.ndarray | None = None  # 2^{ks} per row, set with `integrals`

    def l2_in_time(self):
        """sum_k 2^{ks} (integral_k)^{1/2}."""
        if self.integrals is None:
            return 0.0
        return self.bank.besov_sum(np.sqrt(self.integrals), self._weights)

    def sup_in_time(self):
        """sum_k 2^{ks} max_t e^{rate t} ||delta_k a||."""
        if self.integrals is None:
            return 0.0
        return self.bank.besov_sum(self.maxima, self._weights)


def norm_series_update(acc: NormSeries, dens: np.ndarray, t, weight_value=1.0) -> NormSeries:
    """Feed a block of samples at increasing times `t` (1-D) into a NormSeries,
    the trapezoid in t running on from acc.last_t: `dens` holds one density
    as block_norms takes it per entry of its first axis, as does an array
    `weight_value`.

    The running max is one `maximum.accumulate` and the trapezoid one
    cumsum from the carried integral, so a block adds in the order of
    sample-by-sample updates: the values are the same bit for bit.
    """
    ts = np.asarray(t, dtype=float)
    norms = block_norms(dens, acc.bank)  # (samples, ..., blocks)
    per_sample = (-1,) + (1,) * (norms.ndim - 1)
    weighted = np.exp(np.asarray(acc.rate)[..., None] * ts.reshape(per_sample)) * norms
    integrand = np.asarray(weight_value)[..., None] * weighted**2
    fresh = acc.last_t is None  # then the first sample opens the series at zero
    tt = ts if fresh else np.concatenate(([acc.last_t], ts))
    dt = tt[1:] - tt[:-1]
    if (dt <= 0.0).any():
        i = int(np.argmax(dt <= 0.0))
        raise ValueError(f"non-monotone time sample: t={tt[i + 1]} after t={tt[i]}")
    if fresh:
        acc._weights = acc.bank.weights(acc.s)
        acc.integrals = acc.maxima = np.zeros((1,) + norms.shape[1:])
        sq = integrand
    else:
        sq = np.concatenate((acc._last_weighted_sq[None], integrand))
    steps = (0.5 * dt).reshape(per_sample) * (sq[:-1] + sq[1:])
    # the values at last_t head the sums; a fresh series has no step into
    # its first sample, so its zeros stay
    integrals = np.add.accumulate(np.concatenate((acc.integrals[-1:], steps)), axis=0)
    acc.integrals = integrals[-len(ts):]
    acc.maxima = np.maximum.accumulate(np.concatenate((acc.maxima[-1:], weighted)), axis=0)[1:]
    acc.last_t = float(ts[-1])
    acc._last_weighted_sq = integrand[-1]
    return acc
