"""Weighted energy functionals and decay-rate fits for sampled runs.

Consumes a time-sampled trajectory, a sequence of samples with the time
`t`, the velocity `u` and its time derivative `ut` (and the vertical pair
`v`, `vt` for the scaled energy), such as the solver states themselves,
and assembles the tracked quantities:

* per-sample Gevrey-weighted Besov norms,
* accumulated Chemin-Lerner norms, both sup-in-time and
  weighted-L^2-in-time flavours,
* the composite energies built from them (`energy_E_s` for the
  horizontal velocity alone, `energy_E1` for the scaled pair),
* the surviving analyticity radius and the spectral trust horizon,
* a least-squares exponential decay fit for any positive time series.

All accumulated terms are running values over [0, t]: they are
nondecreasing by construction, and each is a trapezoid (or running
maximum) over the supplied samples, so they are lower bounds for the
continuum norms they discretize.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .gevrey import GevreyParams, apply_gevrey, radius, theta_dot
from .grid import Field, dx, dy, l2_norm, y_density
from .paley import NormSeries, besov_norm, get_bank, norm_series_update

#: bytes of one component's band rows gathered into a block of the energy
#: pass: 16 samples at 32x33 (5.8 KB a field), 2 at 128x65 (44.7 KB); a
#: block's temporaries add about half of its gathered rows
BLOCK_BYTES = 96 << 10

#: regularity of both energies: the point norms sit in the paper's B^{1/2}
S = 0.5


class Term(NamedTuple):
    """One row of a term table: prefactor times the readout ("sup" or "l2"
    in time) of e^{rate K t} ||parts||_{B^{s+ds}}, the L^2-in-time integrand
    weighted by theta_dot^wpow; components combine in L^2 inside each block.
    """

    name: str  # key in EnergyReport.terms
    label: str  # CSV label: time norm and Besov space
    ds: float  # regularity offset from S
    rate: float  # exponential rate, in units of K
    wpow: int  # power of theta_dot weighting the time integral
    prefactor: str  # "1", "(aK)^1/2", "aK", "lam^1/2", "lam" or "lam^3/2"
    readout: str  # "sup" or "l2"
    parts: tuple[str, ...]  # names of the weighted component fields
    composite: bool  # enters the printed composite


class EnergyTable(NamedTuple):
    """The terms of one energy and the names of its CSV columns."""

    name: str  # column prefix
    space: str  # Besov space of the point norms, as labelled in columns
    terms: tuple[Term, ...]


# Horizontal-velocity energy at s = S = 1/2; K is the decay rate, a the
# initial radius and lam the loss multiplier:
#
#   term1  sup-in-time of e^{K t}(u_Phi, dy u_Phi, (dt u)_Phi) in B^s
#   term2  (a K)^{1/2} sup-in-time of e^{3K t/4} u_Phi in B^{s+1/4}
#   term3  a K sup-in-time of e^{K t/2} u_Phi in B^{s+1/2}
#   term4  lam^{1/2} L^2-in-time, weight theta_dot, of
#          e^{K t}(u_Phi, dt(u_Phi), dy u_Phi) in B^{s+1/4}
#   term5  lam L^2-in-time, weight theta_dot^2, of e^{K t} u_Phi in B^{s+1/2}
#   term6  lam^{3/2} L^2-in-time, weight theta_dot^3, of e^{K t} u_Phi
#          in B^{s+3/4}
#   term7  L^2-in-time of e^{K t}((dt u)_Phi, dy u_Phi) in B^s
#
# (dt u)_Phi ("ut") weights the stored time derivative; dt(u_Phi)
# ("dt_of_u") is the derivative of the weighted field, which picks up the
# extra -lam theta_dot |D_x|^{1/2} u_Phi from the moving radius.
# composite = term1 + term2 + term3 + term7 (the printed energy);
# composite_full adds term4 + term5 + term6.
E_S_TABLE = EnergyTable("E_s", "B_s", (
    Term("term1", "Linf.B_s", 0.0, 1.0, 0, "1", "sup", ("u", "dy_u", "ut"), True),
    Term("term2", "Linf.B_s+1/4", 0.25, 0.75, 0, "(aK)^1/2", "sup", ("u",), True),
    Term("term3", "Linf.B_s+1/2", 0.5, 0.5, 0, "aK", "sup", ("u",), True),
    Term("term4", "L2w.B_s+1/4", 0.25, 1.0, 1, "lam^1/2", "l2",
         ("u", "dt_of_u", "dy_u"), False),
    Term("term5", "L2w.B_s+1/2", 0.5, 1.0, 2, "lam", "l2", ("u",), False),
    Term("term6", "L2w.B_s+3/4", 0.75, 1.0, 3, "lam^3/2", "l2", ("u",), False),
    Term("term7", "L2.B_s", 0.0, 1.0, 0, "1", "l2", ("ut", "dy_u"), True),
))

# Scaled-pair energy at regularity 1/2, on the weighted pair (u, eps v)_Phi
# and its derivatives:
#
#   term1  sup-in-time of e^{K t}((u, eps v)_Phi, eps dx (u, eps v)_Phi,
#          dy (u, eps v)_Phi, (dt u, eps dt v)_Phi) in B^{1/2}
#   term2  (a K)^{1/2} sup-in-time of e^{3K t/4}(u, eps v)_Phi in B^{3/4}
#   term3  a K sup-in-time of e^{K t/2}(u, eps v)_Phi in B^1
#   term4  L^2-in-time of e^{K t}(eps dx (u, eps v)_Phi,
#          dy (u, eps v)_Phi, (dt u, eps dt v)_Phi) in B^{1/2}
#
# composite = term1 + term2 + term3 + term4; every term enters it, so
# there is no composite_full.
_PAIR = ("u", "ev")
_PAIR_GRADIENTS = ("eps_dx_u", "eps_dx_ev", "dy_u", "dy_ev", "ut", "evt")
E1_TABLE = EnergyTable("E_1", "B_1/2", (
    Term("term1", "Linf.B_1/2", 0.0, 1.0, 0, "1", "sup", _PAIR + _PAIR_GRADIENTS, True),
    Term("term2", "Linf.B_3/4", 0.25, 0.75, 0, "(aK)^1/2", "sup", _PAIR, True),
    Term("term3", "Linf.B_1", 0.5, 0.5, 0, "aK", "sup", _PAIR, True),
    Term("term4", "L2.B_1/2", 0.0, 1.0, 0, "1", "l2", _PAIR_GRADIENTS, True),
))


@dataclass
class EnergyReport:
    """Diagnostic series for one run, all arrays indexed by sample.

    point_norms holds the instantaneous weighted Besov values
    e^{K t} ||u_Phi||_{B^s} (keys "u", "dy_u", "ut"); l2_norms the
    unweighted L2 norms of u and ut (keys "u", "ut"); terms holds the
    running accumulated norms ("term1", "term2", ...); composite is the
    sum of the terms marked composite in the table (the printed energy);
    composite_full adds the remaining terms and is None when there are
    none.
    """

    times: np.ndarray
    params: GevreyParams
    point_norms: dict[str, np.ndarray]
    l2_norms: dict[str, np.ndarray]
    terms: dict[str, np.ndarray]
    composite: np.ndarray
    composite_full: np.ndarray | None
    radius: np.ndarray
    trust_horizon: np.ndarray
    table: EnergyTable

    def columns(self) -> list[tuple[str, np.ndarray]]:
        """(full CSV column name, series) for every series, in CSV order."""
        name = self.table.name
        cols = [(f"{name}.{row.name}.{row.label}", self.terms[row.name])
                for row in self.table.terms]
        cols.append((f"{name}.composite", self.composite))
        if self.composite_full is not None:
            cols.append((f"{name}.composite_full", self.composite_full))
        cols += [(f"point.{key}.{self.table.space}", arr)
                 for key, arr in self.point_norms.items()]
        return cols + [("radius", self.radius), ("trust_horizon", self.trust_horizon)]

    def validate(self) -> None:
        """Check the structural invariants of the report.

        Every accumulated term must be nondecreasing in time (they are
        running maxima or running integrals), and the analyticity
        radius must stay in (a/2, a].
        """
        for name, arr in self.terms.items():
            scale = max(1.0, float(arr.max(initial=0.0)))
            if np.any(np.diff(arr) < -1e-12 * scale):
                raise AssertionError(f"accumulated term {name} decreased in time")
        a = self.params.a
        if np.any(self.radius <= 0.5 * a - 1e-12 * a):
            raise AssertionError("analyticity radius fell to a/2 or below")
        if np.any(self.radius > a + 1e-12 * a):
            raise AssertionError("analyticity radius exceeded its initial value")


def _assemble(samples, p: GevreyParams, K: float, table: EnergyTable,
              comps: tuple, parts) -> EnergyReport:
    """Run the samples through the terms of `table`, a block at a time.

    A block gathers the rows `comps` of consecutive samples, BLOCK_BYTES of
    each, into one stacked Field (len(comps), B, band, Ny); a None in
    `comps` is a slot that `parts` fills, and comps hold u first and ut
    third, whose unweighted densities give `l2_norms`.  `parts(block, t,
    theta_dot, report)` weights the block in place, stores its trust
    horizons in `report` and returns the (B, band) mode densities of the
    named weighted components; `K` is the unit of the table's rates.  One
    NormSeries row per term takes its components' densities, summed in
    order.  Each sample's
    arithmetic, and its order, is that of one sample at a time, so the
    block size changes no bit.
    """
    # GevreyParams derives delta from (a, lam, K): this fires only if that
    # coupling breaks
    if abs(p.lam * p.sqrt_delta - p.a * p.K / 4.0) > 1e-14 * p.a:
        raise AssertionError(
            "Gevrey weight identity lam * delta^{1/2} = a K / 4 is violated")
    if not samples:
        raise ValueError(f"{table.name} needs at least one sample")
    aK, lam = p.a * p.K, p.lam
    prefactor = {"1": 1.0, "(aK)^1/2": np.sqrt(aK), "aK": aK,
                 "lam^1/2": np.sqrt(lam), "lam": lam, "lam^3/2": lam**1.5}
    rows = table.terms
    scale = np.array([prefactor[row.prefactor] for row in rows])
    is_sup = np.array([row.readout == "sup" for row in rows])
    g = samples[0].u.grid
    series = NormSeries(s=np.array([S + row.ds for row in rows]),
                        rate=np.array([row.rate * K for row in rows]),
                        bank=get_bank(g))

    n = len(samples)
    size = max(1, BLOCK_BYTES // (16 * g.band * g.Ny))
    buf = np.empty(len(comps) * min(size, n) * g.band * g.Ny, dtype=np.complex128)
    times = np.array([smp.t for smp in samples], dtype=float)
    readouts = np.zeros((len(rows), n))
    point = np.zeros((3, n))  # u, dy_u, ut
    l2 = np.zeros((2, n))  # u, ut
    horizon = np.zeros(n)

    for lo in range(0, n, size):
        block, t = samples[lo:lo + size], times[lo:lo + size]
        hi = lo + len(block)
        gathered = buf[:len(comps) * len(block) * g.band * g.Ny].reshape(
            len(comps), len(block), g.band, g.Ny)  # contiguous, as y_dense writes into it
        for name, out in zip(comps, gathered):
            if name is not None:
                np.concatenate([getattr(smp, name).rows for smp in block],
                               out=out.reshape(-1, g.Ny))
        l2[:, lo:hi] = l2_norm(Field(g, gathered[:3:2]))
        rep: dict = {}
        td = theta_dot(t, p)
        dens = parts(Field(g, gathered), t, td, rep)
        horizon[lo:hi] = rep["trust_horizon"][0]
        term_dens = np.empty((len(block), len(rows), g.band))
        for i, row in enumerate(rows):
            term_dens[:, i] = reduce(np.add, map(dens.get, row.parts))
        # Python floats: numpy's power can round td**3 another way
        weights = [[tdi**row.wpow for row in rows] for tdi in td.tolist()]
        norm_series_update(series, term_dens, t, weights)
        readouts[:, lo:hi] = (scale * np.where(is_sup, series.sup_in_time(),
                                               series.l2_in_time())).T
        norms = besov_norm(np.array([dens["u"], dens["dy_u"], dens["ut"]]), S, series.bank)
        point[:, lo:hi] = np.exp(K * t) * norms

    terms = dict(zip((row.name for row in rows), readouts))
    composite = sum(terms[row.name] for row in rows if row.composite)
    rest = [terms[row.name] for row in rows if not row.composite]
    report = EnergyReport(
        times=times,
        params=p,
        point_norms=dict(zip(("u", "dy_u", "ut"), point)),
        l2_norms=dict(zip(("u", "ut"), l2)),
        terms=terms,
        composite=composite,
        composite_full=sum(rest, composite) if rest else None,
        radius=radius(times, p),
        trust_horizon=horizon,
        table=table,
    )
    report.validate()
    return report


def energy_E_s(samples, p: GevreyParams) -> EnergyReport:
    """Assemble the horizontal-velocity energy at s = 1/2 (E_S_TABLE)."""

    def parts(block, t, td, rep):
        g = block.grid
        dy(Field(g, block.rows[0]), out=block.rows[1])
        # u, dy u and ut, each weighted with its own spectral floor
        weighted = apply_gevrey(block, t, p, +1, report=rep, out=block.rows)
        dens = dict(zip(("u", "dy_u", "ut"), y_density(weighted)))
        # dt(u_Phi) = ut_Phi - lam theta_dot |D_x|^{1/2} u_Phi, in the rows of dy u
        u, dt_of_u, ut = weighted.rows
        np.multiply(u, np.sqrt(g.band_xi)[:, None], out=dt_of_u)
        dt_of_u *= (p.lam * td)[:, None, None]
        dens["dt_of_u"] = y_density(Field(g, np.subtract(ut, dt_of_u, out=dt_of_u)))
        return dens

    return _assemble(list(samples), p, p.K, E_S_TABLE, ("u", None, "ut"), parts)


def energy_E1(
    samples, eps: float, p: GevreyParams, decay_rates: bool = True
) -> EnergyReport:
    """Assemble the scaled-pair energy at regularity 1/2 (E1_TABLE).

    Every sample must carry v and vt.  With decay_rates=False every
    exponential rate is zero while the (a K)^{1/2} and a K prefactors
    are kept: the undamped variant used for smallness bookkeeping.
    """
    samples = list(samples)
    if any(getattr(smp, "v", None) is None or getattr(smp, "vt", None) is None
           for smp in samples):
        raise ValueError("energy_E1 needs v and vt on every sample")

    def parts(block, t, td, rep):
        g = block.grid
        weighted = apply_gevrey(block, t, p, +1, report=rep, out=block.rows).rows
        weighted[1::2] *= eps  # (eps v)_Phi and (eps vt)_Phi
        dens = dict(zip(("u", "ev", "ut", "evt"), y_density(Field(g, weighted))))
        # the derivatives of the pair q = (u, ev) go into the rows of qt
        q, qt = Field(g, weighted[:2]), weighted[2:]
        dx(q, out=qt)
        qt *= eps
        dens["eps_dx_u"], dens["eps_dx_ev"] = y_density(Field(g, qt))
        dens["dy_u"], dens["dy_ev"] = y_density(dy(q, out=qt))
        return dens

    return _assemble(samples, p, p.K if decay_rates else 0.0, E1_TABLE,
                     ("u", "v", "ut", "vt"), parts)


def decay_fit(series, window=None) -> tuple[float, float]:
    """Least-squares exponential rate of a positive time series.

    `series` is a sequence of (t, value) pairs; `window = (lo, hi)`
    restricts the fit to lo <= t <= hi.  Fits log(value) = rate * t + c
    and returns (rate, r_squared).  Nonpositive values cannot enter the
    log fit: they are dropped with a warning.  A fit whose residual sits
    at rounding level counts as perfect (r_squared = 1); that convention
    also covers a constant series, whose rate is 0 and whose variance is
    pure roundoff.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("series must be a sequence of (t, value) pairs")
    t, vals = arr[:, 0], arr[:, 1]
    if window is not None:
        lo, hi = window
        keep = (t >= lo) & (t <= hi)
        t, vals = t[keep], vals[keep]
    pos = vals > 0.0
    if not np.all(pos):
        warnings.warn(
            f"decay_fit: dropping {np.count_nonzero(~pos)} nonpositive values",
            RuntimeWarning,
            stacklevel=2,
        )
        t, vals = t[pos], vals[pos]
    if t.size < 2:
        raise ValueError("decay_fit needs at least two positive samples in the window")
    logv = np.log(vals)
    slope, intercept = np.polyfit(t, logv, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((logv - fitted) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    floor = 1e-20 * t.size * (1.0 + float(np.mean(logv**2)))
    if ss_res <= floor or ss_tot <= floor:
        r2 = 1.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(r2)
