"""Weighted energy functionals and decay-rate fits for sampled runs.

Consumes a time-sampled trajectory (velocity and its time derivative,
optionally the vertical pair) and assembles the tracked quantities:

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

from .gevrey import GevreyParams, apply_gevrey, gevrey_weight, radius, theta_dot
from .grid import Field, dx, dy, frac_dx
from .paley import NormSeries, besov_norm, get_bank, mode_density, norm_series_update


@dataclass(frozen=True)
class Sample:
    """One time sample of a run: fields at time t.

    `v` and `vt` are only consumed by `energy_E1`; horizontal-only
    diagnostics ignore them.
    """

    t: float
    u: Field
    ut: Field
    v: Field | None = None
    vt: Field | None = None

    @classmethod
    def from_state(cls, state) -> "Sample":
        """Build a sample from a solver state (either system)."""
        return cls(
            t=state.t,
            u=state.u,
            ut=state.ut,
            v=getattr(state, "v", None),
            vt=getattr(state, "vt", None),
        )


class Term(NamedTuple):
    """One row of a term table: prefactor times the readout ("sup" or "l2"
    in time) of e^{rate K t} ||parts||_{B^{s+ds}}, the L^2-in-time integrand
    weighted by theta_dot^wpow; components combine in L^2 inside each block.
    """

    name: str  # key in EnergyReport.terms
    label: str  # CSV label: time norm and Besov space
    ds: float  # regularity offset from s
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


# Horizontal-velocity energy of index s; K is the decay rate, a the
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
    e^{K t} ||u_Phi||_{B^s} (keys "u", "dy_u", "ut"); terms holds the
    running accumulated norms ("term1", "term2", ...); composite is the
    sum of the terms marked composite in the table (the printed energy);
    composite_full adds the remaining terms and is None when there are
    none.
    """

    times: np.ndarray
    s: float
    params: GevreyParams
    point_norms: dict[str, np.ndarray]
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


def _assemble(samples, s: float, p: GevreyParams, K: float, table: EnergyTable,
              parts) -> EnergyReport:
    """Run the samples through the terms of `table`.

    `parts(smp, theta_dot, report)` returns the mode densities of the named
    weighted components of one sample and stores the trust horizon of the
    weighted velocity in `report`; `K` is the unit of the table's rates.
    One NormSeries row per term takes its components' densities, summed in order.
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
    series = NormSeries(s=np.array([s + row.ds for row in rows]),
                        rate=np.array([row.rate * K for row in rows]),
                        bank=get_bank(samples[0].u.grid))

    n = len(samples)
    times = np.array([smp.t for smp in samples], dtype=float)
    readouts = np.zeros((len(rows), n))
    point = {key: np.zeros(n) for key in ("u", "dy_u", "ut")}
    horizon = np.zeros(n)

    for i, smp in enumerate(samples):
        t = smp.t
        rep: dict = {}
        td = theta_dot(t, p)
        dens = parts(smp, td, rep)
        term_dens = np.array([reduce(np.add, map(dens.get, row.parts)) for row in rows])
        norm_series_update(series, term_dens, t, [td**row.wpow for row in rows])
        sup, l2 = series.sup_in_time(), series.l2_in_time()
        readouts[:, i] = scale * np.where(is_sup, sup, l2)
        norms = besov_norm(np.array([dens[key] for key in point]), s, series.bank)
        for arr, norm in zip(point.values(), np.exp(K * t) * norms):
            arr[i] = norm
        horizon[i] = rep.get("trust_horizon", 0.0)

    terms = dict(zip((row.name for row in rows), readouts))
    composite = sum(terms[row.name] for row in rows if row.composite)
    rest = [terms[row.name] for row in rows if not row.composite]
    report = EnergyReport(
        times=times,
        s=s,
        params=p,
        point_norms=point,
        terms=terms,
        composite=composite,
        composite_full=sum(rest, composite) if rest else None,
        radius=radius(times, p),
        trust_horizon=horizon,
        table=table,
    )
    report.validate()
    return report


def energy_E_s(samples, s: float, p: GevreyParams) -> EnergyReport:
    """Assemble the horizontal-velocity energy of index s (E_S_TABLE)."""

    def parts(smp, td, rep):
        w = gevrey_weight(smp.u.grid, smp.t, p)
        u_phi = apply_gevrey(smp.u, smp.t, p, +1, report=rep, weight=w)
        ut_phi = apply_gevrey(smp.ut, smp.t, p, +1, weight=w)
        return {"u": mode_density(u_phi), "ut": mode_density(ut_phi),
                "dy_u": mode_density(apply_gevrey(dy(smp.u), smp.t, p, +1, weight=w)),
                "dt_of_u": mode_density(ut_phi - p.lam * td * frac_dx(u_phi, 0.5))}

    return _assemble(list(samples), s, p, p.K, E_S_TABLE, parts)


def energy_E1(
    samples, eps: float, p: GevreyParams, decay_rates: bool = True
) -> EnergyReport:
    """Assemble the scaled-pair energy at regularity 1/2 (E1_TABLE).

    All samples must carry v and vt.  With decay_rates=False every
    exponential rate is zero while the (a K)^{1/2} and a K prefactors
    are kept: the undamped variant used for smallness bookkeeping.
    """
    samples = list(samples)
    if any(smp.v is None or smp.vt is None for smp in samples):
        raise ValueError("energy_E1 needs v and vt on every sample")

    def parts(smp, td, rep):
        w = gevrey_weight(smp.u.grid, smp.t, p)
        u_phi = apply_gevrey(smp.u, smp.t, p, +1, report=rep, weight=w)
        ev_phi = eps * apply_gevrey(smp.v, smp.t, p, +1, weight=w)
        return {
            "u": mode_density(u_phi),
            "ev": mode_density(ev_phi),
            "eps_dx_u": mode_density(eps * dx(u_phi)),
            "eps_dx_ev": mode_density(eps * dx(ev_phi)),
            "dy_u": mode_density(dy(u_phi)),
            "dy_ev": mode_density(dy(ev_phi)),
            "ut": mode_density(apply_gevrey(smp.ut, smp.t, p, +1, weight=w)),
            "evt": mode_density(eps * apply_gevrey(smp.vt, smp.t, p, +1, weight=w)),
        }

    return _assemble(samples, 0.5, p, p.K if decay_rates else 0.0, E1_TABLE, parts)


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
