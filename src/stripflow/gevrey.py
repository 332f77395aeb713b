"""Gevrey-2 phase machinery: radius loss theta(t), phase Phi(t, xi),
exponentially weighted fields and the Gevrey initial data of every run.

The radius evolves as

    theta_dot(t) = sqrt(delta) e^{-K t / 2},   theta(0) = 0,
    theta(t) = (2 sqrt(delta) / K) (1 - e^{-K t / 2}),
    delta = (a K / (4 lam))^2,

so the surviving radius a - lam theta(t) = (a/2)(1 + e^{-K t/2}) stays
above a/2 forever.   K = min(1/6, 1/(4 (1 + poincare))) with the sharp
strip Poincare constant 1/pi^2 by default, which lands K = 1/6 exactly.

The phase Phi(t, xi) = (a - lam theta(t)) |xi|^{1/2} is concave in |xi|
and hence subadditive, which is what the paraproduct estimates need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, mean_y

__all__ = [
    "GevreyParams",
    "theta",
    "theta_dot",
    "radius",
    "phi",
    "apply_gevrey",
    "make_gevrey_data",
]

SPECTRAL_FLOOR = 1e-13
TRUST_LOG_LEVEL = -3.0
_EXP_OVERFLOW = 700.0  # log of float64 range, with margin


@dataclass(frozen=True)
class GevreyParams:
    """Radius a, loss multiplier lam, and the Poincare constant.

    K and delta are always derived, never stored, so they cannot drift
    out of sync with (a, lam, poincare).
    """

    a: float = 0.5
    lam: float = 1.0
    poincare: float = 1.0 / np.pi**2

    def __post_init__(self):
        # written so that NaN fails too
        if not 0.0 < self.a < np.inf:
            raise ValueError(f"radius a must be positive and finite, got {self.a}")
        if not 1.0 <= self.lam < np.inf:
            raise ValueError(f"lam must be >= 1 and finite, got {self.lam}")
        if not 0.0 < self.poincare < np.inf:
            raise ValueError(
                f"poincare constant must be positive and finite, got {self.poincare}")

    @property
    def K(self) -> float:
        return min(1.0 / 6.0, 1.0 / (4.0 * (1.0 + self.poincare)))

    @property
    def delta(self) -> float:
        return (self.a * self.K / (4.0 * self.lam)) ** 2

    @property
    def sqrt_delta(self) -> float:
        return self.a * self.K / (4.0 * self.lam)


def _check_t(t):
    t = np.asarray(t, dtype=float)
    if not (t >= 0.0).all():  # written so that NaN fails too
        raise ValueError(f"time must be nonnegative, got {t}")
    return t


def theta(t, p: GevreyParams):
    """Closed-form accumulated radius loss."""
    t = _check_t(t)
    out = (2.0 * p.sqrt_delta / p.K) * (1.0 - np.exp(-p.K * t / 2.0))
    return float(out) if out.ndim == 0 else out


def theta_dot(t, p: GevreyParams):
    """Rate of radius loss: sqrt(delta) e^{-K t / 2}."""
    t = _check_t(t)
    out = p.sqrt_delta * np.exp(-p.K * t / 2.0)
    return float(out) if out.ndim == 0 else out


def radius(t, p: GevreyParams):
    """Surviving Gevrey radius a - lam theta(t) = (a/2)(1 + e^{-K t/2})."""
    return p.a - p.lam * theta(t, p)


def phi(t, xi, p: GevreyParams):
    """Phase Phi(t, xi) = (a - lam theta(t)) |xi|^{1/2}."""
    return radius(t, p) * np.sqrt(np.abs(xi))


def apply_gevrey(f: Field, t, p: GevreyParams, sign: int,
                 report: dict | None = None, out: np.ndarray | None = None) -> Field:
    """Multiply band row m by e^{sign Phi(t, xi_m)}, into a new Field or
    into `out`, which may be `f.rows` itself.

    `f` may hold a stack of fields, and `t` broadcasts against its leading
    axes (one time per sample of a block).  For sign = +1 (amplification)
    two guards apply: in each field, coefficients below SPECTRAL_FLOOR
    relative to its max modulus are zeroed before weighting, and the factor
    e^{Phi} at the largest band frequency, the largest one a Field holds,
    must not overflow float64 for O(1) coefficients.  If `report` is a dict
    its one key "trust_horizon" receives, per field, the largest band |xi|
    at which Phi + log(relative coefficient) still exceeds -3, i.e. where
    the weighted output stands above amplified roundoff (0.0 if none does).
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    grid = f.grid
    ph = np.multiply.outer(radius(t, p), np.sqrt(grid.band_xi))  # (..., band)
    if sign < 0:
        return Field(grid, np.multiply(f.rows, np.exp(-ph)[..., None], out=out))
    top = ph[..., -1].max()
    if top > _EXP_OVERFLOW:
        raise OverflowError(
            f"Gevrey weight e^{{{top:.1f}}} at |xi|={grid.band_xi[-1]:.1f} "
            "overflows float64; shrink the radius or the grid"
        )
    mag = np.abs(f.rows)  # read before `out` may overwrite the rows
    scale = mag.max(axis=(-2, -1), keepdims=True)
    floor = SPECTRAL_FLOOR * scale
    floored = mag < floor  # none if the field is zero
    w = np.multiply(f.rows, np.exp(ph)[..., None], out=out)
    np.copyto(w, 0.0, where=floored)
    if report is not None:
        # a row's largest coefficient that is not floored: its max, or none
        mode_mag = mag.max(axis=-1)
        mode_mag[mode_mag < floor[..., 0]] = 0.0
        with np.errstate(divide="ignore"):
            level = ph + np.log(mode_mag / np.maximum(scale[..., 0], 1e-300))
        # band_xi[0] is 0.0, so a field with no trusted row reports 0.0
        horizon = np.where(level > TRUST_LOG_LEVEL, grid.band_xi, 0.0).max(axis=-1)
        report["trust_horizon"] = float(horizon) if horizon.ndim == 0 else horizon
    return Field(grid, w)


def make_gevrey_data(grid: Grid, p: GevreyParams, amplitude: float = 1e-3,
                     m_max: int = 8) -> tuple[Field, Field]:
    """Band Gevrey data: u0_hat(m, y) = c e^{-a sqrt(|xi_m|)} sin(2 pi y).

    Modes 1 <= |m| <= m_max carry the profile sin(2 pi y), whose walls are
    pinned to exactly 0 and whose discrete y-mean vanishes, so the
    compatibility integral vanishes identically; u1 = 0.  Both are band
    Fields (rows m = 0..Nx/3, see `Grid.fold`), the layout of a solver
    state, so m_max must lie in [1, Nx/3].
    """
    K = grid.band - 1
    if not (1 <= m_max <= K):
        raise ValueError(f"m_max must lie in [1, Nx/3] = [1, {K}], got {m_max}")
    prof = np.sin(2.0 * np.pi * grid.y)
    prof[0] = prof[-1] = 0.0  # pin the walls exactly (sin(2 pi) is ~1e-16)
    c = np.zeros((grid.band, grid.Ny), dtype=np.complex128)
    for m in range(1, m_max + 1):
        c[m, :] = amplitude * np.exp(-p.a * np.sqrt(grid.band_xi[m])) * prof
    u0 = Field(grid, c)
    u1 = Field(grid, np.zeros_like(c))
    compat = np.abs(mean_y(u0)).max()
    if compat > 1e-12 * max(amplitude, 1e-300):
        raise AssertionError(f"compatibility integral {compat:.3e} too large")
    return u0, u1
