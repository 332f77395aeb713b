"""Spectral-in-x / finite-difference-in-y fields on a periodic strip.

Domain: (x, y) in [0, Lx) x [0, 1], periodic in x, solid walls at y = 0 and
y = 1.  A field is stored as partial Fourier coefficients c[m, j],

    f(x_i, y_j) = sum_m c[m, j] * exp(i xi_m x_i),   xi_m = 2*pi*m/Lx,

with m running over the FFT ordering {0, 1, ..., Nx/2, -Nx/2+1, ..., -1},
i.e. c = fft(values, axis=0, norm="forward").  Real fields satisfy the
conjugate symmetry c[-m, j] = conj(c[m, j]).

Fields stay spectral in x at rest.  Products transform to physical x,
multiply pointwise, transform back, and are dealiased by the 2/3 rule.
The y direction is a uniform node set with second-order centered
differences inside and second-order one-sided stencils on the walls.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "to_spectral",
    "to_physical",
    "dx",
    "frac_dx",
    "dy",
    "dyy",
    "dy_matrix",
    "cumulative_trapezoid",
    "integrate_y",
    "mean_y",
    "l2_norm",
    "dealias",
    "multiply",
    "pin_walls",
    "real_symmetry_defect",
]


class Grid:
    """Tensor grid for the periodic strip: Fourier in x, nodes in y.

    Args:
        Nx: number of x collocation points (even, >= 4).
        Ny: number of y nodes including both walls (>= 9).
        Lx: horizontal period (> 0), default 2*pi.
    """

    def __init__(self, Nx: int, Ny: int, Lx: float = 2.0 * np.pi):
        if Lx <= 0.0:
            raise ValueError(f"Lx must be positive, got {Lx}")
        if Nx < 4 or Nx % 2 != 0:
            raise ValueError(f"Nx must be even and >= 4, got {Nx}")
        if Ny < 9:
            raise ValueError(f"Ny must be >= 9, got {Ny}")
        self.Lx = float(Lx)
        self.Nx = int(Nx)
        self.Ny = int(Ny)
        self.dy = 1.0 / (Ny - 1)
        self.y = np.linspace(0.0, 1.0, Ny)
        # mode numbers in FFT order: 0, 1, ..., Nx/2, -Nx/2+1, ..., -1
        m = np.fft.fftfreq(Nx, d=1.0 / Nx).astype(int)
        m[Nx // 2] = Nx // 2  # fftfreq reports the Nyquist bin as -Nx/2
        self.m = m
        self.xi = 2.0 * np.pi * m / Lx
        self.abs_xi = np.abs(self.xi)
        self.nyquist = Nx // 2
        # i*xi multiplier for d/dx; the unpaired Nyquist bin is zeroed so the
        # derivative of a real field stays real
        mult = 1j * self.xi
        mult[self.nyquist] = 0.0
        self._dx_mult = mult
        # -xi^2 multiplier for d2/dx2, the square of the one above
        self._dxx_mult = (mult * mult).real
        # 2/3-rule mask: keep |m| <= Nx/3
        self.dealias_mask = np.abs(m) <= Nx // 3
        # trapezoid weights in y (fixed summation order via dot products)
        w = np.full(Ny, self.dy)
        w[0] = w[-1] = 0.5 * self.dy
        self.trapz_w = w
        self.key = (self.Lx, self.Nx, self.Ny)

    def __eq__(self, other):
        return isinstance(other, Grid) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Grid(Nx={self.Nx}, Ny={self.Ny}, Lx={self.Lx:g})"


class Field:
    """Complex coefficient array c[m, j] on a grid, with light arithmetic."""

    __slots__ = ("grid", "coeff")

    def __init__(self, grid: Grid, coeff: np.ndarray):
        if coeff.shape != (grid.Nx, grid.Ny):
            raise ValueError(
                f"coefficient shape {coeff.shape} does not match grid "
                f"(Nx, Ny) = {(grid.Nx, grid.Ny)}"
            )
        self.grid = grid
        self.coeff = np.asarray(coeff, dtype=np.complex128)

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros((grid.Nx, grid.Ny), dtype=np.complex128))

    def copy(self) -> "Field":
        return Field(self.grid, self.coeff.copy())

    def _check_same_grid(self, other: "Field"):
        if self.grid is not other.grid and self.grid.key != other.grid.key:
            raise ValueError(
                f"grid mismatch: {self.grid!r} vs {other.grid!r}"
            )

    def __add__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.coeff + other.coeff)

    def __sub__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.coeff - other.coeff)

    def __mul__(self, c) -> "Field":
        return Field(self.grid, self.coeff * c)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.coeff)


def to_spectral(grid: Grid, values: np.ndarray) -> Field:
    """Transform physical values (real, Nx x Ny) to a spectral Field."""
    values = np.asarray(values)
    if values.shape != (grid.Nx, grid.Ny):
        raise ValueError(
            f"expected physical array of shape {(grid.Nx, grid.Ny)}, "
            f"got {values.shape}"
        )
    if np.iscomplexobj(values):
        raise ValueError("physical values must be real")
    return Field(grid, np.fft.fft(values.astype(np.float64), axis=0, norm="forward"))


def real_symmetry_defect(f: Field) -> float:
    """Max deviation of coeff(-m) from conj(coeff(m)), relative to max |coeff|."""
    c = f.coeff
    scale = np.abs(c).max()
    if scale == 0.0:
        return 0.0
    flipped = np.conj(c[(-np.arange(f.grid.Nx)) % f.grid.Nx, :])
    return float(np.abs(flipped - c).max() / scale)


def to_physical(f: Field, check: bool = True) -> np.ndarray:
    """Transform back to physical values; verifies conjugate symmetry."""
    if check:
        defect = real_symmetry_defect(f)
        if defect > 1e-12:
            raise ValueError(
                f"field is not conjugate-symmetric (defect {defect:.3e}); "
                "refusing to drop imaginary parts"
            )
    return np.fft.ifft(f.coeff, axis=0, norm="forward").real


def dx(f: Field) -> Field:
    """Horizontal derivative: multiply by i*xi (Nyquist bin zeroed)."""
    return Field(f.grid, f.coeff * f.grid._dx_mult[:, None])


def frac_dx(f: Field, s: float) -> Field:
    """Fractional horizontal derivative |D_x|^s (xi-multiplier |xi|^s).

    For s < 0 the m = 0 mode is set to zero instead of diverging.
    """
    g = f.grid
    if s == 0.0:
        return f.copy()
    mult = np.empty(g.Nx)
    nonzero = g.abs_xi > 0.0
    mult[nonzero] = g.abs_xi[nonzero] ** s
    mult[~nonzero] = 0.0 if s < 0 else (1.0 if s == 0 else 0.0)
    return Field(g, f.coeff * mult[:, None])


def dy(f: Field) -> Field:
    """d/dy: centered second order inside, one-sided second order at walls."""
    c = f.coeff
    h = f.grid.dy
    out = np.empty_like(c)
    out[:, 1:-1] = (c[:, 2:] - c[:, :-2]) / (2.0 * h)
    out[:, 0] = (-3.0 * c[:, 0] + 4.0 * c[:, 1] - c[:, 2]) / (2.0 * h)
    out[:, -1] = (3.0 * c[:, -1] - 4.0 * c[:, -2] + c[:, -3]) / (2.0 * h)
    return Field(f.grid, out)


def dyy(f: Field) -> Field:
    """d2/dy2: centered second order inside, one-sided second order at walls."""
    c = f.coeff
    h2 = f.grid.dy ** 2
    out = np.empty_like(c)
    out[:, 1:-1] = (c[:, 2:] - 2.0 * c[:, 1:-1] + c[:, :-2]) / h2
    out[:, 0] = (2.0 * c[:, 0] - 5.0 * c[:, 1] + 4.0 * c[:, 2] - c[:, 3]) / h2
    out[:, -1] = (
        2.0 * c[:, -1] - 5.0 * c[:, -2] + 4.0 * c[:, -3] - c[:, -4]
    ) / h2
    return Field(f.grid, out)


def dy_matrix(grid: Grid) -> np.ndarray:
    """Dense (Ny, Ny) matrix of the dy() stencils; dy(f) == f.coeff @ D.T."""
    n = grid.Ny
    h = grid.dy
    D = np.zeros((n, n))
    idx = np.arange(1, n - 1)
    D[idx, idx - 1] = -1.0 / (2.0 * h)
    D[idx, idx + 1] = 1.0 / (2.0 * h)
    D[0, 0:3] = np.array([-3.0, 4.0, -1.0]) / (2.0 * h)
    D[-1, -3:] = np.array([1.0, -4.0, 3.0]) / (2.0 * h)
    return D


def cumulative_trapezoid(c: np.ndarray, h: float) -> np.ndarray:
    """Cumulative trapezoid rule along the last axis with spacing h.

    Zero in the first column; the arithmetic and its order are those of
    scipy.integrate.cumulative_trapezoid(c, dx=h, axis=-1, initial=0).
    """
    cum = np.cumsum(h * (c[..., 1:] + c[..., :-1]) / 2.0, axis=-1)
    return np.concatenate([np.zeros_like(cum[..., :1]), cum], axis=-1)


def integrate_y(f: Field, upper: float | None = None):
    """Trapezoidal integral from y = 0.

    With upper=None returns the cumulative integral as a Field (zero at
    y = 0).  With a node value `upper` returns the per-mode integrals
    over [0, upper] as a complex array of length Nx.
    """
    g = f.grid
    cum = cumulative_trapezoid(f.coeff, g.dy)
    if upper is None:
        return Field(g, cum)
    j = int(round(upper / g.dy))
    if not (0 <= j < g.Ny) or abs(upper - g.y[j]) > 1e-12:
        raise ValueError(f"upper={upper} does not lie on a grid node")
    return cum[:, j]


def mean_y(f: Field) -> np.ndarray:
    """Per-mode trapezoid integral over [0, 1] (length-Nx complex array)."""
    return f.coeff @ f.grid.trapz_w


def l2_norm(f: Field) -> float:
    """L2 norm on the strip: Parseval in x (weight Lx), trapezoid in y."""
    density = (f.coeff.real ** 2 + f.coeff.imag ** 2) @ f.grid.trapz_w
    return float(np.sqrt(f.grid.Lx * density.sum()))


def dealias(f: Field) -> Field:
    """Zero the top third of x-modes (2/3 rule)."""
    out = f.coeff.copy()
    out[~f.grid.dealias_mask, :] = 0.0
    return Field(f.grid, out)


def multiply(f, g) -> Field:
    """Dealiased pointwise product of two real fields.

    `f` and `g` may also be equal-length sequences of real fields; the
    result is then the dealiased sum f[0] g[0] + f[1] g[1] + ...  Factors
    go to physical x two per inverse transform (real a, b ride as a + ib),
    the products are summed there, and the sum takes one forward transform
    and one dealias (the 2/3 rule is linear).  A sum of n products thus
    costs n + 1 transforms instead of 3n.  An odd last pair is transformed
    factor by factor, so two single fields take two inverse transforms and
    one forward transform.

    The symmetry check is skipped here: products sit in solver inner loops
    where the inputs are produced by symmetry-preserving operations, and a
    relative check misfires when an oscillating field passes through zero
    while carrying absolute-roundoff-sized imaginary parts.  Overflow is not
    warned about: the solvers' finiteness checks turn it into an abort.
    """
    fs = (f,) if isinstance(f, Field) else tuple(f)
    gs = (g,) if isinstance(g, Field) else tuple(g)
    if not fs or len(fs) != len(gs):
        raise ValueError(
            f"multiply needs two equal-length, non-empty sequences of fields, "
            f"got lengths {len(fs)} and {len(gs)}"
        )
    for h in fs[1:] + gs:
        fs[0]._check_same_grid(h)

    def physical(a: Field, b: Field | None = None) -> np.ndarray:
        c = a.coeff if b is None else a.coeff + 1j * b.coeff
        return np.fft.ifft(c, axis=0, norm="forward")

    n = len(fs)
    terms = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, n - 1, 2):
            zf = physical(fs[k], fs[k + 1])
            zg = physical(gs[k], gs[k + 1])
            terms.append(zf.real * zg.real + zf.imag * zg.imag)
        if n % 2:
            terms.append(physical(fs[-1]).real * physical(gs[-1]).real)
        spec = np.fft.fft(sum(terms[1:], terms[0]), axis=0, norm="forward")
    return dealias(Field(fs[0].grid, spec))


def pin_walls(f: Field) -> Field:
    """Zero the wall rows j = 0 and j = Ny-1 (homogeneous Dirichlet)."""
    out = f.coeff.copy()
    out[:, 0] = 0.0
    out[:, -1] = 0.0
    return Field(f.grid, out)
