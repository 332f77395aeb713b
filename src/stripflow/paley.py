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

from dataclasses import dataclass, field as dataclass_field
from functools import cache, reduce

import numpy as np

from .grid import Field, Grid, dx, l2_norm, multiply, to_physical, y_density

__all__ = [
    "chi",
    "phi",
    "DyadicBank",
    "build_bank",
    "get_bank",
    "delta_k",
    "S_k",
    "mode_density",
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
    """Cutoffs for one grid: phi/chi evaluated at every grid frequency.

    k runs over the contiguous range [k_min, k_max] of blocks that see any
    nonzero grid frequency; row i of the sample arrays is block k_min + i.
    """

    grid: Grid
    k_min: int
    k_max: int
    phi_samples: np.ndarray  # (K, Nx): phi(2^{-k} |xi_m|)
    chi_samples: np.ndarray  # (K, Nx): chi(2^{-k} |xi_m|)
    phi_sq: np.ndarray = dataclass_field(init=False)

    def __post_init__(self):
        self.phi_sq = self.phi_samples**2

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
        """phi(2^{-k} |xi|) samples for any integer k (zeros outside range)."""
        if self.k_min <= k <= self.k_max:
            return self.phi_samples[k - self.k_min]
        return phi(self.grid.abs_xi / 2.0**k)

    def chi_row(self, k: int) -> np.ndarray:
        if self.k_min <= k <= self.k_max:
            return self.chi_samples[k - self.k_min]
        return chi(self.grid.abs_xi / 2.0**k)


def build_bank(grid: Grid) -> DyadicBank:
    """Evaluate the dyadic cutoffs on a grid's frequency set."""
    nonzero = grid.abs_xi[grid.abs_xi > 0.0]
    lo, hi = nonzero.min(), nonzero.max()
    # phi(2^{-k} tau) != 0 requires 2^k in [3 tau / 8, 4 tau / 3]
    k_candidates = np.arange(
        int(np.floor(np.log2(3.0 * lo / 8.0))) - 1,
        int(np.ceil(np.log2(4.0 * hi / 3.0))) + 2,
    )
    rows = [phi(grid.abs_xi / 2.0**k) for k in k_candidates]
    live = [i for i, r in enumerate(rows) if np.any(r > 0.0)]
    k_min = int(k_candidates[live[0]])
    k_max = int(k_candidates[live[-1]])
    phi_samples = np.array(rows[live[0] : live[-1] + 1])
    chi_samples = np.array(
        [chi(grid.abs_xi / 2.0**k) for k in range(k_min, k_max + 1)]
    )
    return DyadicBank(grid, k_min, k_max, phi_samples, chi_samples)


@cache
def get_bank(grid: Grid) -> DyadicBank:
    """Per-grid cached bank (construction is one-shot and read-only after);
    equal Grids share it."""
    return build_bank(grid)


def delta_k(f: Field, k: int, bank: DyadicBank | None = None) -> Field:
    """Dyadic block projector: multiply coefficients by phi(2^{-k}|xi|)."""
    bank = bank or get_bank(f.grid)
    return Field(f.grid, f.rows * bank.row(k)[:f.grid.band, None])


def S_k(f: Field, k: int, bank: DyadicBank | None = None) -> Field:
    """Low-pass up to block k: multiply by chi(2^{-k}|xi|) (keeps the mean)."""
    bank = bank or get_bank(f.grid)
    return Field(f.grid, f.rows * bank.chi_row(k)[:f.grid.band, None])


def mode_density(fields) -> np.ndarray:
    """Per-mode squared-L2 density: trapz_y sum_components |c_m(y)|^2."""
    if isinstance(fields, Field):
        fields = (fields,)
    return reduce(np.add, [y_density(f) for f in fields])


def _density(fields, bank: DyadicBank | None):
    """(density, bank) of a Field, a component tuple or a density (with `bank`)."""
    if not isinstance(fields, np.ndarray):
        first = fields if isinstance(fields, Field) else fields[0]
        return mode_density(fields), bank or get_bank(first.grid)
    if bank is None:
        raise ValueError("a density array needs the bank of its grid")
    return fields, bank


def block_norms(fields, bank: DyadicBank | None = None) -> np.ndarray:
    """Per-block L2 norms ||delta_k f||, m = 0 energy folded into k_min.

    `fields` may be a single Field or a sequence of Fields: components of a
    vector field are combined in L2 inside each block (root-sum-square)
    before any summation over blocks.  A `mode_density` with its `bank`
    works too; a 2-D (rows, Nx) density gives a row of blocks per row.
    """
    dens, bank = _density(fields, bank)
    # a gemv per row keeps each row bit-identical to its 1-D form (a GEMM would not)
    sq = np.matmul(bank.phi_sq, dens[..., None])[..., 0]
    sq[..., 0] += dens[..., 0]  # fold the x-mean mode into block k_min
    return np.sqrt(bank.grid.Lx * sq)


def besov_norm(fields, s, bank: DyadicBank | None = None):
    """l1-over-blocks Besov norm sum_k 2^{ks} ||delta_k f||_{L2} of what
    block_norms takes (one value per row of a 2-D density)."""
    dens, bank = _density(fields, bank)
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
    mixed_ratio: float | None  # sup_x ||f(x,.)||_{L2_y} / (2^{k/2} ||f||)
    block_l2: float
    skipped: bool


def bernstein_check(f: Field, k: int, bank: DyadicBank | None = None) -> BernsteinReport:
    """Empirical Bernstein ratios for the block-k piece of f.

    The first ratio is the mean horizontal frequency of the block in units
    of 2^k; the cutoff support pins it inside [3/4, 8/3].  A spectrally
    empty block is reported as skipped.
    """
    bank = bank or get_bank(f.grid)
    blk = delta_k(f, k, bank)
    l2 = l2_norm(blk)
    if l2 <= 1e-13 * max(l2_norm(f), 1e-300):
        return BernsteinReport(k, None, None, l2, True)
    ratio = l2_norm(dx(blk)) / (2.0**k * l2)
    if not (0.75 <= ratio <= 8.0 / 3.0):
        raise AssertionError(
            f"block-{k} frequency ratio {ratio:.6f} escaped [3/4, 8/3]"
        )
    vals = to_physical(blk)
    g = f.grid
    col_l2 = np.sqrt((vals**2) @ g.trapz_w)  # ||f(x_i, .)||_{L2_y} per x
    mixed = float(col_l2.max()) / (2.0 ** (k / 2.0) * l2)
    return BernsteinReport(k, float(ratio), mixed, l2, False)


@dataclass
class NormSeries:
    """Running dyadic-block accumulators for time-weighted norms.

    Tracks, per block k, the trapezoid-in-time integral of

        weight(t) * (e^{rate t} ||delta_k a(t)||_{L2})^2

    and the running max of e^{rate t} ||delta_k a(t)||, from which the
    time-integrated (l2-in-time) and sup-in-time block norms are read off
    as sum_k 2^{ks} sqrt(integral_k) resp. sum_k 2^{ks} max_k.  Array `s`,
    `rate` and weight hold one series per row; density samples need `bank`.
    """

    s: float | np.ndarray
    rate: float | np.ndarray = 0.0
    bank: DyadicBank | None = None
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


def norm_series_update(acc: NormSeries, fields, t, weight_value=1.0) -> NormSeries:
    """Feed one time sample, anything block_norms takes, into a NormSeries
    (trapezoid in t over the step from acc.last_t)."""
    dens, acc.bank = _density(fields, acc.bank)
    norms = block_norms(dens, acc.bank)
    if acc.integrals is None:
        acc._weights = acc.bank.weights(acc.s)
        acc.integrals = np.zeros(norms.shape)
        acc.maxima = np.zeros(norms.shape)
    weighted = np.exp(np.asarray(acc.rate)[..., None] * t) * norms
    integrand = np.asarray(weight_value)[..., None] * weighted**2
    if acc.last_t is not None:
        if t <= acc.last_t:
            raise ValueError(f"non-monotone time sample: t={t} after t={acc.last_t}")
        acc.integrals += 0.5 * (t - acc.last_t) * (acc._last_weighted_sq + integrand)
    acc.maxima = np.maximum(acc.maxima, weighted)
    acc.last_t = t
    acc._last_weighted_sq = integrand
    return acc
