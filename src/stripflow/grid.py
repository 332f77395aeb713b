"""Spectral-in-x / finite-difference-in-y fields on a periodic strip.

Domain: (x, y) in [0, Lx) x [0, 1], periodic in x, solid walls at y = 0 and
y = 1.  A field is stored as partial Fourier coefficients c[m, j],

    f(x_i, y_j) = sum_m c[m, j] * exp(i xi_m x_i),   xi_m = 2*pi*m/Lx,

with m running over the FFT ordering {0, 1, ..., Nx/2, -Nx/2+1, ..., -1},
i.e. c = fft(values, axis=0, norm="forward").  Real fields satisfy the
conjugate symmetry c[-m, j] = conj(c[m, j]).

A dealiased real field (2/3 rule: c[m] = 0 for |m| > Nx/3) is fixed by its
band, the rows m = 0..Nx/3.  `Grid.fold` takes a full spectrum to its band
and checks that nothing is dropped; `Grid.unfold` rebuilds the full
spectrum.  A Field is its band, and so is every per-mode array (densities,
weights, multipliers).  Only the transforms here and the snapshot codec
see a full spectrum, and every conjugate mirror is written in this module.

A Field may hold a stack of fields: band rows with any leading axes,
(..., Nx//3 + 1, Ny).  Every operator acts field by field over the leading
axes, each field with the arithmetic of a single one, except the
advection form of `multiply`, which maps the pair (u, v) to the pair of
its advections.

Fields stay spectral in x at rest.  Products transform to physical x,
multiply pointwise, transform back, and are dealiased by the 2/3 rule.
The y direction is a uniform node set with second-order centered
differences inside and second-order one-sided stencils on the walls.
The y operators d2/dy2, d/dy and int_0^y have one form: a dense matrix,
built once per Ny from the stencil table and the trapezoid rule
(`y_operators`), that `y_dense` applies as BLAS products.  `dy` and `dyy`
are its first two orders.  The same tile loop (`_y_apply`) applies d/dy
to physical values, where `multiply`'s advection form differentiates
its packed pair: d/dy acts along y and the transform along x.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "to_spectral",
    "to_physical",
    "dx",
    "dy",
    "dyy",
    "dy_matrix",
    "Y_DENSE",
    "y_operators",
    "y_dense",
    "mean_y",
    "l2_norm",
    "y_density",
    "multiply",
]


class Grid:
    """Tensor grid for the periodic strip: Fourier in x, nodes in y.

    Args:
        Nx: number of x collocation points (even, >= 4).
        Ny: number of y nodes including both walls (>= 9).
        Lx: horizontal period (> 0, finite), default 2*pi.
    """

    def __init__(self, Nx: int, Ny: int, Lx: float = 2.0 * np.pi):
        if not 0.0 < Lx < np.inf:  # NaN fails too
            raise ValueError(f"Lx must be positive and finite, got {Lx}")
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
        # 2/3 rule: the band is the rows m = 0..Nx/3 (never the Nyquist
        # row), its mirror the rows of the modes -m; band_xi is their xi >= 0
        self.band = Nx // 3 + 1
        self.dealias_mirror = (-np.arange(self.band)) % Nx
        self.band_xi = self.xi[:self.band]
        # band-row multipliers: i*xi for d/dx, and -xi^2 for d2/dx2, its square
        self._dx_rows = 1j * self.band_xi[:, None]
        self._dxx_rows = (self._dx_rows * self._dx_rows).real
        self._dx_full = 1j * self.xi[:, None]  # i*xi over every row
        # trapezoid weights in y (fixed summation order via dot products)
        w = np.full(Ny, self.dy)
        w[0] = w[-1] = 0.5 * self.dy
        self.trapz_w = w
        self.key = (self.Lx, self.Nx, self.Ny)
        self._work, self._views = {}, {}  # flat buffer per name, views of it

    def work(self, name: str, shape: tuple) -> np.ndarray:
        """Complex scratch array of `shape` for hot loops (a fresh 128x65
        temporary is faulted in on every call).  Each name holds one flat
        buffer, sized to its largest request, that every shape views: a name
        serves one user at a time.  The contents are undefined on entry, and
        an array from here must never be handed out as a result.  Two states
        on one Grid must never step at the same time (two threads that did
        corrupted each other's RK stages)."""
        view = self._views.get((name, shape))
        if view is None:
            size, buf = int(np.prod(shape)), self._work.get(name)
            if buf is None or buf.size < size:  # grow, dropping the old views
                buf = self._work[name] = np.empty(size, np.complex128)
                self._views = {k: v for k, v in self._views.items() if k[0] != name}
            view = self._views[name, shape] = buf[:size].reshape(shape)
        return view

    def fold(self, full: np.ndarray) -> np.ndarray:
        """The band rows m = 0..Nx/3 of full spectra (..., Nx, Ny), copied.

        Raises ValueError if a field has content outside the band, or a row
        m <= 0 that is not the conjugate of row -m, beyond 1e-12 of that
        field's max |coeff| (the tolerance of `to_physical`): either would
        be lost.
        """
        full = np.asarray(full, dtype=np.complex128)
        K = self.band - 1

        def worst(c):  # per field, relative to its own max |coeff|
            return np.abs(c).max(axis=(-2, -1), initial=0.0)

        scale = 1e-12 * worst(full)
        if np.any(worst(full[..., K + 1:self.Nx - K, :]) > scale):
            raise ValueError(f"content outside the band |m| <= Nx/3 = {K}")
        mirror = full[..., self.dealias_mirror, :] - np.conj(full[..., :K + 1, :])
        if np.any(worst(mirror) > scale):
            raise ValueError("rows m <= 0 are not the conjugates of rows -m")
        return full[..., :K + 1, :].copy()

    def unfold(self, band: np.ndarray) -> np.ndarray:
        """Full spectra (..., Nx, Ny) of the real fields whose band rows
        m = 0..Nx/3 are `band` (..., band, Ny): rows -m are their
        conjugates, the rest 0.  Only the transforms and snapshots need a
        full spectrum.

        A mirrored zero is written as +0.0, not -0.0, as the arithmetic on
        a full spectrum leaves it."""
        K = self.band - 1
        out = np.empty(band.shape[:-2] + (self.Nx, self.Ny), dtype=np.complex128)
        out[..., :K + 1, :] = band
        out[..., K + 1:self.Nx - K, :] = 0.0
        src, hi = band[..., K:0:-1, :], out[..., self.Nx - K:, :]
        np.add(src.real, 0.0, out=hi.real)
        np.subtract(0.0, src.imag, out=hi.imag)
        return out

    def __eq__(self, other):
        return isinstance(other, Grid) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Grid(Nx={self.Nx}, Ny={self.Ny}, Lx={self.Lx:g})"


_COMPLEX = np.dtype(np.complex128)  # numpy's one native complex128; others go through asarray


class Field:
    """Coefficients of real dealiased fields on a grid, with light arithmetic.

    A Field is its grid and its band: `rows` has shape (..., band, Ny), the
    rows m = 0..Nx/3 (see `Grid.fold`) of one field or of a stack of fields
    with any leading axes, viewed, not copied; every operator returns a band
    Field.  Full spectra go through `Grid.fold` and `Grid.unfold`; one given
    here is folded, for the benchmark's span check alone.
    """

    __slots__ = ("grid", "rows")

    def __init__(self, grid: Grid, rows: np.ndarray):
        if type(rows) is not np.ndarray or rows.dtype is not _COMPLEX:
            rows = np.asarray(rows, dtype=np.complex128)
        shape = rows.shape[-2:]
        if shape != (grid.band, grid.Ny):
            if shape != (grid.Nx, grid.Ny):
                raise ValueError(
                    f"coefficient shape {rows.shape} does not match grid (Nx, Ny) = "
                    f"{(grid.Nx, grid.Ny)} or its band {(grid.band, grid.Ny)} in its last "
                    f"two axes")
            rows = grid.fold(rows)
        self.grid = grid
        self.rows = rows

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros((grid.band, grid.Ny), dtype=np.complex128))

    def copy(self) -> "Field":
        return Field(self.grid, self.rows.copy())

    def _check_same_grid(self, other: "Field"):
        if self.grid is not other.grid and self.grid.key != other.grid.key:
            raise ValueError(f"grid mismatch: {self.grid!r} vs {other.grid!r}")

    def __add__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.rows + other.rows)

    def __sub__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.rows - other.rows)

    def __mul__(self, c) -> "Field":
        return Field(self.grid, self.rows * c)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.rows)


def to_spectral(grid: Grid, values: np.ndarray) -> Field:
    """Transform physical values (real, Nx x Ny) to a spectral Field.  A
    Field is its band, so values that are not dealiased raise ValueError
    (from `Grid.fold`) instead of being truncated."""
    values = np.asarray(values)
    if values.shape != (grid.Nx, grid.Ny):
        raise ValueError(
            f"expected physical array of shape {(grid.Nx, grid.Ny)}, "
            f"got {values.shape}"
        )
    if np.iscomplexobj(values):
        raise ValueError("physical values must be real")
    return Field(grid, grid.fold(np.fft.fft(values.astype(np.float64), axis=0,
                                            norm="forward")))


def to_physical(f: Field) -> np.ndarray:
    """Transform back to physical values (..., Nx, Ny), x along axis -2.

    A band Field is conjugate-symmetric by construction except for its mean
    row m = 0, which must be real: an imaginary part beyond 1e-12 of
    max |rows| of its field raises ValueError rather than being dropped."""
    defect = np.abs(f.rows[..., 0, :].imag).max(axis=-1)
    bad = defect > 1e-12 * np.abs(f.rows).max(axis=(-2, -1))
    if bad.any():
        raise ValueError(
            f"field is not conjugate-symmetric (mean row m = 0 has imaginary "
            f"part {defect.max():.3e}); refusing to drop imaginary parts"
        )
    return np.fft.ifft(f.grid.unfold(f.rows), axis=-2, norm="forward").real


def dx(f: Field, out: np.ndarray | None = None) -> Field:
    """Horizontal derivative: multiply by i*xi, into `out` if given."""
    return Field(f.grid, np.multiply(f.rows, f.grid._dx_rows, out=out))


#: y-derivative stencils by order: (divisor in units of dy**order, interior
#: terms, terms at the wall y = 0), each term a (node offset, weight) pair
#: that `y_operators` writes into its dense matrix.  The wall y = 1 mirrors
#: y = 0: offsets negated, weights times (-1)**order.  Second order
#: everywhere: centered inside, one-sided at the walls.
Y_STENCILS = {
    1: (2.0, ((1, 1.0), (-1, -1.0)), ((0, -3.0), (1, 4.0), (2, -1.0))),
    2: (1.0, ((0, -2.0), (1, 1.0), (-1, 1.0)),
        ((0, 2.0), (1, -5.0), (2, 4.0), (3, -1.0))),
}

#: the orders of the y operators, in the order of the matrices of
#: `y_operators`: d2/dy2 and d/dy (Y_STENCILS), and order -1 the
#: antiderivative int_0^y by the cumulative trapezoid rule
Y_DENSE = (2, 1, -1)
#: float columns per tile of a dense y operator (see `_y_tiles`)
_TILE = 64


@cache
def y_operators(Ny: int) -> np.ndarray:
    """The dense y operators on Ny nodes, one read-only (3, Ny, Ny) real
    array with a matrix Op per order of Y_DENSE, rows @ Op applying it to
    rows along their last axis.  A derivative's column j holds the weights
    of its Y_STENCILS stencil at node j, each over div * h**order; int_0^y
    is the cumulative trapezoid rule, whose node i >= 1 weighs h/2 in the
    integral up to node i and h in those above it, and node 0 h/2 in every
    integral but its own."""
    h, inside = 1.0 / (Ny - 1), np.arange(1, Ny - 1)
    ops = np.zeros((len(Y_DENSE), Ny, Ny))
    for op, order in zip(ops, Y_DENSE):
        if order < 0:
            op[np.triu_indices(Ny, 1)] = h
            op[0, 1:] = h / 2
            np.fill_diagonal(op[1:, 1:], h / 2)
            continue
        div, inner, wall = Y_STENCILS[order]
        scale = 1.0 / (div * h ** order)
        for off, w in inner:
            op[inside + off, inside] = w * scale
        for off, w in wall:
            op[off, 0] = w * scale
            op[-1 - off, -1] = (-1.0) ** order * w * scale
    ops.flags.writeable = False
    return ops


@cache
def _y_tiles(Ny: int, order: int) -> list[tuple[slice, slice, np.ndarray]]:
    """The (rows, cols, tile) pieces of the `order` operator on the float
    view x of complex rows, y[..., cols] = x[..., rows] @ tile: column
    blocks of about _TILE floats, each tile kron(Op[span, block], I2) over
    only the span of nodes that is nonzero in its columns.  A banded d/dy
    or d2/dy2 tile reads a band, so at Ny = 65 two tiles take about 2/3 of
    the time of one product."""
    op = y_operators(Ny)[Y_DENSE.index(order)]
    edges = np.linspace(0, Ny, max(1, round(2 * Ny / _TILE)) + 1).astype(int)
    tiles = []
    for a, b in zip(edges[:-1], edges[1:]):
        nz = np.flatnonzero(op[:, a:b].any(axis=1))
        lo, hi = nz[0], nz[-1] + 1
        tiles.append((slice(2 * lo, 2 * hi), slice(2 * a, 2 * b),
                      np.kron(op[lo:hi, a:b], np.eye(2))))
    return tiles


def y_dense(f: Field, order: int, out: np.ndarray | None = None) -> Field:
    """The dense y operator of `order` (see Y_DENSE) of each field of `f`, as
    BLAS products on the float view of its rows, a tile at a time (see
    `_y_tiles`); into `out` if given, which must be C-contiguous.

    Raises ValueError if `out` may overlap the rows it reads: a tile would
    read what an earlier one wrote.
    """
    rows = f.rows
    if not rows.flags.c_contiguous:
        rows = np.ascontiguousarray(rows)
    return Field(f.grid, _y_apply(rows, order, np.empty_like(rows) if out is None else out))


def _y_apply(a: np.ndarray, order: int, out: np.ndarray) -> np.ndarray:
    """The `order` operator along the last axis of the C-contiguous complex
    array `a`, of any leading shape, into `out`, by the tiles of `_y_tiles`:
    the tile loop of `y_dense`, also for physical values."""
    if np.may_share_memory(out, a):
        raise ValueError("a y operator cannot write into the rows it reads")
    x, y = a.view(np.float64), out.view(np.float64)
    for r, c, tile in _y_tiles(a.shape[-1], order):
        np.matmul(x[..., r], tile, y[..., c])
    return out


def dy(f: Field, out: np.ndarray | None = None) -> Field:
    """d/dy: centered second order inside, one-sided second order at walls;
    into `out` if given (see `y_dense`)."""
    return y_dense(f, 1, out)


def dyy(f: Field, out: np.ndarray | None = None) -> Field:
    """d2/dy2: centered second order inside, one-sided second order at walls;
    into `out` if given (see `y_dense`)."""
    return y_dense(f, 2, out)


def dy_matrix(Ny: int) -> np.ndarray:
    """Dense (Ny, Ny) matrix of d/dy on Ny nodes, dy(f) == f.rows @ D.T up to
    roundoff: a read-only view of the d/dy matrix of `y_operators`."""
    return y_operators(Ny)[Y_DENSE.index(1)].T


def mean_y(f: Field) -> np.ndarray:
    """Per-mode trapezoid integral over [0, 1] of the band rows m = 0..Nx/3
    (a complex array (..., Nx//3 + 1)).  A row -m holds the conjugate of
    row m's integral and the rows past the band zero, so the band gives the
    largest |mean| of the whole spectrum."""
    return f.rows @ f.grid.trapz_w  # a gemv per field


def y_density(f: Field) -> np.ndarray:
    """Trapezoid-in-y integral of |c[m, y]|^2 per band row m = 0..Nx/3, a row
    m >= 1 doubled to count its mirror -m: the energy of the whole spectrum,
    (..., Nx//3 + 1) for a stack, all fields in one pass."""
    sq = f.rows.real ** 2
    sq += f.rows.imag ** 2
    dens = sq @ f.grid.trapz_w  # a gemv per field
    dens[..., 1:] *= 2.0  # exact: the mirror's density is bit-identical
    return dens


def l2_norm(f: Field):
    """L2 norm on the strip: Parseval in x (weight Lx), trapezoid in y; a
    float, or an array of one norm per field of a stack."""
    norm = np.sqrt(f.grid.Lx * y_density(f).sum(axis=-1))
    return float(norm) if norm.ndim == 0 else norm


def _pack(grid: Grid, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a + ib into `out`, the full spectrum of the complex physical field
    a + ib of the band rows a and b.  Rows m = 0..Nx/3 are A + iB and rows
    -m are conj(A) + i conj(B) (two real fields in one complex transform:
    Press et al., Numerical Recipes, 3rd ed., 12.3.2)."""
    K, Nx = grid.band - 1, grid.Nx
    lo, hi = out[:K + 1], out[Nx - K:]
    np.multiply(b, 1j, out=lo)
    np.subtract(a[K:0:-1], lo[K:0:-1], out=hi)  # conj(A - iB), rows -1..-K
    np.conj(hi, out=hi)
    lo += a
    out[K + 1:Nx - K] = 0.0
    return out


def _split_pair(grid: Grid, spec: np.ndarray) -> np.ndarray:
    """Band rows of the real and imaginary parts of a physical field whose
    spectrum is `spec`, one (2, band, Ny) array.  Conjugate symmetry
    separates them: with r = conj(spec[-m]), the parts are (spec[m] + r) / 2
    and (spec[m] - r) / 2i for 0 <= m <= Nx/3.
    """
    s, r = spec[:grid.band], np.conj(spec[grid.dealias_mirror])
    out = np.empty((2,) + s.shape, dtype=np.complex128)
    np.multiply(0.5, s + r, out=out[0])
    np.multiply(-0.5j, s - r, out=out[1])
    return out


def multiply(f: Field, g: Field | None = None) -> Field:
    """Dealiased pointwise product of two real fields, field by field over
    stacks of one shape: both factors go to physical x (`to_physical`, with
    its check of the mean row), are multiplied there, and the product takes
    one forward transform and keeps its band.  Factors of unequal shapes
    or on different grids raise ValueError.

    Advection form: without `g`, `f` is a pair (u, v), a (2, band, Ny)
    stack, and the result is the pair of dealiased advections
    (u d_x + v d_y) u and (u d_x + v d_y) v, one (2, band, Ny) stack in the
    same order.  The pair rides as z = u + iv:
    one inverse transform gives z, a second one of i xi times its packed
    spectrum gives z_x, and d/dy, which acts along y where the transform
    acts along x, is the dense product (`y_dense`'s tiles) of physical z.
    Re(z) z_x + Im(z) z_y takes one forward transform that conjugate
    symmetry splits in two, so the two advections cost 3 transforms.

    The result holds only the rows m = 0..Nx/3 of the product, with no
    mirror written.  Overflow warns as any numpy arithmetic does; the RK4
    step silences it (`stepper.rk4_step`), because the solvers' finiteness
    checks turn it into an abort.
    """
    fs, grid = f.rows, f.grid
    if g is None:
        if fs.shape[:-2] != (2,):
            raise ValueError(f"the advection form needs a pair (u, v), got leading "
                             f"shape {fs.shape[:-2]}")
        z = grid.work("multiply.f", (grid.Nx, grid.Ny))
        zx, zy = grid.work("multiply.g", (2, grid.Nx, grid.Ny))
        np.multiply(_pack(grid, fs[0], fs[1], z), grid._dx_full, out=zx)
        np.fft.ifft(z, axis=0, norm="forward", out=z)
        np.fft.ifft(zx, axis=0, norm="forward", out=zx)
        _y_apply(z, 1, zy)
        zx *= z.real
        zy *= z.imag
        zx += zy
        np.fft.fft(zx, axis=0, norm="forward", out=zx)
        return Field(grid, _split_pair(grid, zx))
    if g.rows.shape != fs.shape:
        raise ValueError(f"multiply needs factors of one shape, got {fs.shape} "
                         f"and {g.rows.shape}")
    f._check_same_grid(g)
    spec = np.fft.fft(to_physical(f) * to_physical(g), axis=-2, norm="forward")
    return Field(grid, spec[..., :grid.band, :])
