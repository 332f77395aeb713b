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
spectrum.  A Field is its band: it stores only those rows, so the solvers
step band rows only.  Every conjugate mirror is written in this module.

Fields stay spectral in x at rest.  Products transform to physical x,
multiply pointwise, transform back, and are dealiased by the 2/3 rule.
The y direction is a uniform node set with second-order centered
differences inside and second-order one-sided stencils on the walls.
"""

from __future__ import annotations

import math

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
    "y_diff",
    "real_view",
    "unstack",
    "cumulative_trapezoid",
    "integrate_y",
    "mean_y",
    "l2_norm",
    "y_density",
    "multiply",
    "pin_walls",
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
        # i*xi multiplier for d/dx, and -xi^2 for d2/dx2, its square
        self._dx_mult = 1j * self.xi
        self._dxx_mult = (self._dx_mult * self._dx_mult).real
        # 2/3-rule mask: keep |m| <= Nx/3; the band is the rows m = 0..Nx/3
        # (never the Nyquist row), its mirror the rows of the modes -m
        self.dealias_mask = np.abs(m) <= Nx // 3
        self.band = Nx // 3 + 1
        self.dealias_mirror = (-np.arange(self.band)) % Nx
        self._band_row = np.minimum(np.abs(m), Nx // 3)  # of each mode in the band
        # trapezoid weights in y (fixed summation order via dot products)
        w = np.full(Ny, self.dy)
        w[0] = w[-1] = 0.5 * self.dy
        self.trapz_w = w
        self.key = (self.Lx, self.Nx, self.Ny)
        self._work = {}

    def work(self, name: str, shape: tuple) -> np.ndarray:
        """Complex scratch array of `shape`, kept per name.

        A 128x65 field is larger than the allocator's mmap threshold, so a
        fresh temporary of that size is faulted in on every call; hot loops
        reuse these instead.  Requests of one name share memory (the
        largest size is kept), so a name must not serve two arrays in use
        at once.  The contents are undefined on entry, and an array from
        here must never be handed out as a result.  The buffers belong to
        this Grid object, so two states on one Grid must never step at the
        same time (two threads that did corrupted each other's RK stages);
        concurrent runs each need their own Grid.  The solvers ask for band
        stacks, (n, band, Ny), and the products for full spectra, (Nx, Ny).
        """
        size = math.prod(shape)
        buf = self._work.get(name)
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype=np.complex128)
            self._work[name] = buf
        return buf[:size].reshape(shape)

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
        conjugates, the rest 0.  A 1-D `band` holds real per-mode values,
        such as densities, and its rows -m repeat rows m.

        A mirrored zero is written as +0.0, not -0.0, as the arithmetic on
        a full spectrum leaves it."""
        if band.ndim == 1:
            return np.where(self.dealias_mask, band[self._band_row], 0.0)
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


class Field:
    """Coefficients of a real dealiased field on a grid, with light arithmetic.

    A Field is its band: `rows` has shape (band, Ny), the rows m = 0..Nx/3
    (see `Grid.fold`), viewed, not copied; every operator returns a band
    Field.  A full spectrum (Nx, Ny) is accepted as input only and folded,
    which raises ValueError on content the band would drop.  `coeff` is the
    full spectrum, unfolded on every read into a read-only array, so a
    write through it raises instead of being lost.
    """

    __slots__ = ("grid", "rows")

    def __init__(self, grid: Grid, coeff: np.ndarray):
        coeff = np.asarray(coeff, dtype=np.complex128)
        if coeff.shape == (grid.Nx, grid.Ny):
            coeff = grid.fold(coeff)
        elif coeff.shape != (grid.band, grid.Ny):
            raise ValueError(
                f"coefficient shape {coeff.shape} does not match grid "
                f"(Nx, Ny) = {(grid.Nx, grid.Ny)} or its band {(grid.band, grid.Ny)}"
            )
        self.grid = grid
        self.rows = coeff

    @property
    def coeff(self) -> np.ndarray:
        full = self.grid.unfold(self.rows)
        full.flags.writeable = False
        return full

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


def unstack(grid: Grid, arr: np.ndarray) -> tuple[Field, ...]:
    """Fields viewing the rows of a stacked (n, band, Ny) array (no copy);
    a Field is its band."""
    return tuple(Field(grid, row) for row in arr)


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
    return Field(grid, np.fft.fft(values.astype(np.float64), axis=0, norm="forward"))


def to_physical(f: Field) -> np.ndarray:
    """Transform back to physical values.

    A band Field is conjugate-symmetric by construction except for its mean
    row m = 0, which must be real: an imaginary part beyond 1e-12 of
    max |rows| raises ValueError rather than being dropped."""
    defect = np.abs(f.rows[0].imag).max()
    if defect > 1e-12 * np.abs(f.rows).max():
        raise ValueError(
            f"field is not conjugate-symmetric (mean row m = 0 has imaginary "
            f"part {defect:.3e}); refusing to drop imaginary parts"
        )
    return np.fft.ifft(f.coeff, axis=0, norm="forward").real


def dx(f: Field) -> Field:
    """Horizontal derivative: multiply by i*xi."""
    return Field(f.grid, f.rows * f.grid._dx_mult[:f.grid.band, None])


def frac_dx(f: Field, s: float) -> Field:
    """Fractional horizontal derivative |D_x|^s (xi-multiplier |xi|^s).

    For s < 0 the m = 0 mode is set to zero instead of diverging.
    """
    g = f.grid
    if s == 0.0:
        return f.copy()
    nonzero = g.abs_xi > 0.0
    mult = np.where(nonzero, g.abs_xi, 1.0) ** s * nonzero
    return Field(g, f.rows * mult[:g.band, None])


#: y-derivative stencils by order: (divisor in units of dy**order, interior
#: terms, terms at the wall y = 0), each term a (node offset, weight) pair,
#: summed in the order listed.  The wall y = 1 mirrors y = 0: offsets
#: negated, weights times (-1)**order.  Second order everywhere: centered
#: inside, one-sided at the walls.
Y_STENCILS = {
    1: (2.0, ((1, 1.0), (-1, -1.0)), ((0, -3.0), (1, 4.0), (2, -1.0))),
    2: (1.0, ((0, -2.0), (1, 1.0), (-1, 1.0)),
        ((0, 2.0), (1, -5.0), (2, 4.0), (3, -1.0))),
}

#: the wall terms of Y_STENCILS for both walls at once: (offset, weights at
#: y = 0 and at y = 1)
_WALL_TERMS = {
    order: tuple((off, np.array([w, (-1.0) ** order * w])) for off, w in wall)
    for order, (_, _, wall) in Y_STENCILS.items()
}


def y_diff(c: np.ndarray, h: float, order: int,
           out: np.ndarray | None = None) -> np.ndarray:
    """Apply the Y_STENCILS derivative of `order` along the last axis of `c`.

    `c` may carry any leading axes (a stack of fields is differentiated in
    one pass); `out`, if given, receives the result, must be C-contiguous
    and must not overlap `c`.
    """
    div, inner, _ = Y_STENCILS[order]
    c = np.ascontiguousarray(c)
    if out is None:
        out = np.empty_like(c)
    elif not out.flags.c_contiguous:
        raise ValueError("y_diff needs a C-contiguous out array")
    # The interior stencil runs over the flattened array, in long contiguous
    # passes; what it leaves on the wall columns, where it straddles two
    # rows, the wall stencils overwrite.
    src, n = c.reshape(-1), c.shape[-1]
    mid = out.reshape(-1)[1:-1]
    end = src.size - 1
    for k, (off, w) in enumerate(inner):
        term = src[1 + off:end + off]
        if k == 0:
            np.multiply(real_view(term), w, out=real_view(mid))
            continue
        if abs(w) != 1.0:
            term = term * abs(w)
        (np.add if w > 0 else np.subtract)(mid, term, out=mid)
    # Columns off and n-1-off, the off-th node in from either wall, are one
    # strided view, so each wall term serves both walls.
    walls = out[..., ::n - 1]
    for k, (off, w) in enumerate(_WALL_TERMS[order]):
        cols = c[..., off:n - off:n - 1 - 2 * off]
        if k == 0:
            np.multiply(cols, w, out=walls)
        else:
            walls += cols * w
    scaled = real_view(out)
    scaled *= 1.0 / (div * h ** order)  # what complex / real computes
    return out


def real_view(c: np.ndarray) -> np.ndarray:
    """Float64 view of a complex array (real and imaginary parts interleaved
    along the last axis), for scaling by real numbers at real-array cost."""
    return c.view(np.float64) if c.dtype.kind == "c" else c


def dy(f: Field) -> Field:
    """d/dy: centered second order inside, one-sided second order at walls."""
    return Field(f.grid, y_diff(f.rows, f.grid.dy, 1))


def dyy(f: Field) -> Field:
    """d2/dy2: centered second order inside, one-sided second order at walls."""
    return Field(f.grid, y_diff(f.rows, f.grid.dy, 2))


def dy_matrix(grid: Grid) -> np.ndarray:
    """Dense (Ny, Ny) matrix of the dy() stencils; dy(f) == f.coeff @ D.T.

    Row j of the stencil applied to the unit vectors is column j of D.
    """
    return y_diff(np.eye(grid.Ny), grid.dy, 1).T


def cumulative_trapezoid(c: np.ndarray, h: float) -> np.ndarray:
    """Cumulative trapezoid rule along the last axis with spacing h.

    Zero in the first column; the arithmetic and its order are those of
    scipy.integrate.cumulative_trapezoid(c, dx=h, axis=-1, initial=0).
    """
    out = np.empty(c.shape, dtype=np.result_type(c.dtype, float))
    out[..., 0] = 0.0
    cum = np.add(c[..., 1:], c[..., :-1], out=out[..., 1:])
    cum *= h
    cum /= 2.0
    np.cumsum(cum, axis=-1, out=cum)
    return out


def integrate_y(f: Field) -> Field:
    """Cumulative trapezoidal integral from y = 0 (zero at y = 0)."""
    return Field(f.grid, cumulative_trapezoid(f.rows, f.grid.dy))


def mean_y(f: Field) -> np.ndarray:
    """Per-mode trapezoid integral over [0, 1] (length-Nx complex array)."""
    return f.coeff @ f.grid.trapz_w


def y_density(f: Field) -> np.ndarray:
    """Trapezoid-in-y integral of |c[m, y]|^2 for each of the Nx modes m, in
    FFT order (from the band rows, their mirrors and zeros)."""
    c = f.rows
    return f.grid.unfold((c.real ** 2 + c.imag ** 2) @ f.grid.trapz_w)


def l2_norm(f: Field) -> float:
    """L2 norm on the strip: Parseval in x (weight Lx), trapezoid in y."""
    return float(np.sqrt(f.grid.Lx * y_density(f).sum()))


def _physical(grid: Grid, name: str, fields) -> list[np.ndarray]:
    """Real physical values of `fields`, two per inverse transform (a + ib),
    as views of the grid's `name` work stack."""
    n = len(fields)
    buf = grid.work(name, ((n + 1) // 2, grid.Nx, grid.Ny))
    vals = []
    for z, k in zip(buf, range(0, n, 2)):
        pair = k + 1 < n
        _pack(fields[k], fields[k + 1] if pair else None, z)
        np.fft.ifft(z, axis=0, norm="forward", out=z)
        vals += [z.real, z.imag] if pair else [z.real]
    return vals


def _pack(a: Field, b: Field | None, out: np.ndarray) -> np.ndarray:
    """a + ib into `out`, the full spectrum of the complex physical field
    a + ib (of a alone when b is None).  Rows m = 0..Nx/3 are A + iB and
    rows -m are conj(A) + i conj(B) (two real fields in one complex
    transform: Press et al., Numerical Recipes, 3rd ed., 12.3.2)."""
    if b is None:
        out[...] = a.coeff
        return out
    K, Nx = a.grid.band - 1, a.grid.Nx
    lo, hi = out[:K + 1], out[Nx - K:]
    np.multiply(b.rows, 1j, out=lo)
    np.subtract(a.rows[K:0:-1], lo[K:0:-1], out=hi)  # conj(A - iB), rows -1..-K
    np.conj(hi, out=hi)
    lo += a.rows
    out[K + 1:Nx - K] = 0.0
    return out


def _split_pair(grid: Grid, spec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Band rows of the real and imaginary parts of a physical field whose
    spectrum is `spec`.  Conjugate symmetry separates them: with
    r = conj(spec[-m]), the parts are (spec[m] + r) / 2 and (spec[m] - r) / 2i
    for 0 <= m <= Nx/3.
    """
    s, r = spec[:grid.band], np.conj(spec[grid.dealias_mirror])
    return 0.5 * (s + r), -0.5j * (s - r)


def multiply(f, g) -> Field | tuple[Field, Field]:
    """Dealiased pointwise product of two real fields.

    `f` and `g` may also be equal-length sequences of real fields; the
    result is then the dealiased sum f[0] g[0] + f[1] g[1] + ...  Factors
    go to physical x two per inverse transform (real a, b ride as a + ib),
    the products are summed there, and the sum takes one forward transform
    and one dealias (the 2/3 rule is linear).  A sum of n products thus
    costs n + 1 transforms instead of 3n.  An odd last pair is transformed
    factor by factor, so two single fields take two inverse transforms and
    one forward transform.

    Two-output form: with `g` a pair of sequences (g1, g2), each as long as
    `f`, the result is the pair of dealiased sums f[0] g1[0] + f[1] g1[1] +
    ... and f[0] g2[0] + f[1] g2[1] + ...  The factors of `f` go to
    physical x once for both outputs, the k-th factors of g1 and g2 share
    one inverse transform (g1[k] + i g2[k]), and the packed sum takes one
    forward transform that conjugate symmetry splits in two.  Two outputs
    of two products each thus cost 4 transforms.

    The result holds only the rows m = 0..Nx/3 of the product, with no
    mirror written.  Overflow is not warned about: the solvers' finiteness
    checks turn it into an abort.
    """
    fs = (f,) if isinstance(f, Field) else tuple(f)
    if isinstance(g, Field):
        gss, single = ((g,),), True
    else:
        g = tuple(g)
        single = bool(g) and isinstance(g[0], Field)
        gss = (g,) if single or not g else tuple(tuple(gj) for gj in g)
    if not fs or any(len(gs) != len(fs) for gs in gss):
        raise ValueError(
            f"multiply needs equal-length, non-empty sequences of fields, "
            f"got lengths {len(fs)} and {[len(gs) for gs in gss]}"
        )
    if not single and len(gss) != 2:
        raise ValueError(
            f"multiply's two-output form takes exactly two outputs, got {len(gss)}")
    grid, factors = fs[0].grid, fs + sum(gss, ())
    for h in factors[1:]:
        fs[0]._check_same_grid(h)

    with np.errstate(over="ignore", invalid="ignore"):
        fv = _physical(grid, "multiply.f", fs)
        if single:
            gv = _physical(grid, "multiply.g", gss[0])
            prod = fv[0] * gv[0]
            for fk, gk in zip(fv[1:], gv[1:]):
                prod += fk * gk
            spec = np.fft.fft(prod, axis=0, norm="forward")
            return Field(grid, spec[:grid.band])
        total, z = grid.work("multiply.g", (2, grid.Nx, grid.Ny))
        for k, (fk, gk, hk) in enumerate(zip(fv, *gss)):
            dst = total if k == 0 else z
            np.fft.ifft(_pack(gk, hk, dst), axis=0, norm="forward", out=dst)
            dst *= fk
            if k:
                total += z
        np.fft.fft(total, axis=0, norm="forward", out=total)
        return tuple(Field(grid, part) for part in _split_pair(grid, total))


def pin_walls(f: Field) -> Field:
    """Zero the wall rows j = 0 and j = Ny-1 (homogeneous Dirichlet)."""
    out = f.rows.copy()
    out[:, 0] = 0.0
    out[:, -1] = 0.0
    return Field(f.grid, out)
