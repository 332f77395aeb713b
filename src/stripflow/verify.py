"""Self-contained property suite behind the `verify` command.

Each check re-derives one structural invariant of the norm machinery or
one closed-form solver oracle and reports pass/fail with a measured
residual, so a broken build names the property it broke.  The checks
are importable one by one; `verify_all` bundles them in the order the
CLI prints them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import paley
from .gevrey import GevreyParams, apply_gevrey, phi as gevrey_phi, radius, theta
from .grid import Field, Grid, l2_norm, multiply, to_spectral
from .hns import HnsState, hns_step
from .prandtl import PrandtlState, prandtl_step


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, err: float, tol: float) -> CheckResult:
    return CheckResult(
        name, bool(err <= tol), f"max residual {err:.3e} (tolerance {tol:.1e})"
    )


def _random_field(g: Grid, seed: int) -> Field:
    """A random real field with zero x-mean and no modes beyond the 2/3 band."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((g.band, g.Ny)) + 1j * rng.standard_normal((g.band, g.Ny))
    rows[0] = 0.0
    return Field(g, rows)


def check_partition_of_unity(grid: Grid, bump: float = 0.0) -> CheckResult:
    """sum_k phi(tau / 2^k) = 1 densely in tau and at every grid frequency.

    `bump` injects a deliberate defect into the sampled sums (fault-path
    testing of the verify pipeline itself).
    """
    tau = np.logspace(-3.0, 3.0, 4001)
    dense = sum(paley.phi(tau / 2.0**k) for k in np.arange(-15, 15)) + bump
    bank = paley.build_bank(grid)
    nz = grid.abs_xi > 0.0
    ongrid = bank.phi_samples[:, nz].sum(axis=0) + bump
    err = max(np.abs(dense - 1.0).max(), np.abs(ongrid - 1.0).max())
    return _result("partition-of-unity", float(err), 1e-12)


def check_low_frequency_identity(grid: Grid) -> CheckResult:
    """chi(tau) + sum_{j >= 0} phi(tau / 2^j) = 1 densely and on the grid."""
    bank = paley.get_bank(grid)
    j_hi = max(12, bank.k_max + 2)
    tau = np.logspace(-2.0, 2.0, 1001)
    dense = paley.chi(tau) + sum(paley.phi(tau / 2.0**j) for j in range(0, j_hi))
    nz = grid.abs_xi[grid.abs_xi > 0.0]
    ongrid = paley.chi(nz) + sum(paley.phi(nz / 2.0**j) for j in range(0, j_hi))
    err = max(np.abs(dense - 1.0).max(), np.abs(ongrid - 1.0).max())
    return _result("low-frequency-identity", float(err), 1e-12)


def check_block_overlap(grid: Grid, seed: int = 2) -> CheckResult:
    """delta_j delta_k = 0 whenever |j - k| >= 2."""
    f = _random_field(grid, seed)
    bank = paley.get_bank(grid)
    scale = np.abs(f.rows).max()
    worst = 0.0
    for k in bank.ks:
        fk = paley.delta_k(f, k, bank)
        for j in bank.ks:
            if abs(j - k) >= 2:
                worst = max(worst, float(np.abs(paley.delta_k(fk, j, bank).rows).max()))
    return _result("block-overlap", worst / scale, 1e-13)


def check_bernstein(grid: Grid, seed: int = 3) -> CheckResult:
    """Every occupied block's mean frequency sits inside the cutoff support."""
    f = _random_field(grid, seed)
    bank = paley.get_bank(grid)
    lo, hi = np.inf, 0.0
    try:
        for k in bank.ks:
            rep = paley.bernstein_check(f, k, bank)
            if rep.skipped:
                continue
            lo, hi = min(lo, rep.ratio), max(hi, rep.ratio)
    except AssertionError as exc:
        return CheckResult("bernstein", False, str(exc))
    return CheckResult(
        "bernstein", True, f"frequency ratios in [{lo:.3f}, {hi:.3f}] within [0.75, 2.667]"
    )


def check_bony(grid: Grid, n_pairs: int = 20, seed: int = 5) -> CheckResult:
    """Paraproducts plus remainder rebuild the dealiased product."""
    worst = 0.0
    for i in range(n_pairs):
        f = _random_field(grid, seed + 2 * i)
        h = _random_field(grid, seed + 2 * i + 1)
        Tfh, Thf, R = paley.bony(f, h)
        rebuilt = Tfh + Thf + R
        prod = multiply(f, h)
        worst = max(worst, l2_norm(rebuilt - prod) / l2_norm(prod))
    return _result("bony-reconstruction", worst, 1e-10)


def check_theta_ode(p: GevreyParams) -> CheckResult:
    """Closed-form theta against a classical RK4 integration of its ODE.

    theta solves theta' = delta^{1/2} - (K/2) theta with theta(0) = 0.  The
    step h = 0.025 keeps h K / 2 <= 2.1e-3 (K <= 1/6), so the RK4 error is
    at roundoff (7e-14 relative at the default parameters).
    """
    K, sd, h = p.K, p.sqrt_delta, 0.025

    def rate(th):
        return sd - 0.5 * K * th

    ths = [0.0]
    for _ in range(800):  # to t = 20
        th = ths[-1]
        k1 = rate(th)
        k2 = rate(th + 0.5 * h * k1)
        k3 = rate(th + 0.5 * h * k2)
        ths.append(th + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + rate(th + h * k3)))
    ts = np.linspace(0.0, 20.0, 81)  # every 10th step
    err = np.abs(np.array(ths[::10]) - theta(ts, p)).max() / max(theta(20.0, p), 1e-300)
    return _result("gevrey-theta-ode", float(err), 1e-10)


def check_radius_closed_form(p: GevreyParams) -> CheckResult:
    """a - lam theta(t) = (a/2)(1 + e^{-K t / 2})."""
    ts = np.linspace(0.0, 50.0, 501)
    expected = 0.5 * p.a * (1.0 + np.exp(-0.5 * p.K * ts))
    err = np.abs(radius(ts, p) - expected).max()
    return _result("gevrey-radius-closed-form", float(err), 1e-13)


def check_phase_subadditivity(p: GevreyParams) -> CheckResult:
    """Phi(t, xi + eta) <= Phi(t, xi) + Phi(t, eta) on a 100 x 100 sample grid."""
    xi = np.logspace(-2.0, 3.0, 100)
    worst = -np.inf
    for t in (0.0, 0.5, 2.0, 10.0):
        lhs = gevrey_phi(t, xi[:, None] + xi[None, :], p)
        one_d = gevrey_phi(t, xi, p)
        rhs = one_d[:, None] + one_d[None, :]
        worst = max(worst, float((lhs - rhs).max()))
    return _result("gevrey-phase-subadditivity", max(worst, 0.0), 1e-13)


def check_inverse_pair(grid: Grid, p: GevreyParams) -> CheckResult:
    """Weighting by e^{+Phi} then e^{-Phi} returns the field."""
    rng = np.random.default_rng(11)
    band = np.zeros((grid.band, grid.Ny), dtype=complex)
    for m in range(1, min(6, grid.band)):
        band[m] = rng.standard_normal(grid.Ny) + 1j * rng.standard_normal(grid.Ny)
    f = Field(grid, band)
    worst = 0.0
    for t in (0.0, 1.0, 7.5):
        back = apply_gevrey(apply_gevrey(f, t, p, +1), t, p, -1)
        worst = max(worst, float(np.abs(back.rows - band).max()))
    return _result("gevrey-inverse-pair", worst / np.abs(band).max(), 1e-10)


def _mu_discrete(Ny: int) -> float:
    dy = 1.0 / (Ny - 1)
    return 2.0 * (1.0 - np.cos(2.0 * np.pi * dy)) / dy**2


def _oscillator(mu: float, t: float) -> float:
    w = np.sqrt(mu - 0.25)
    return float(np.exp(-0.5 * t) * (np.cos(w * t) + np.sin(w * t) / (2.0 * w)))


def _linear_mode_check(name: str, Ny: int, dt: float, mu: float, make_state,
                       stepper) -> CheckResult:
    """The mode sin x sin 2 pi y on an 8 x Ny grid, stepped to t = 1 from
    `make_state(u0)` with `stepper(state, h)`, against the damped oscillator
    of rate mu.  Halving dt must shrink the error by a factor in [10, 22]
    (fourth order).
    """
    g = Grid(8, Ny)
    x = np.arange(g.Nx) * g.Lx / g.Nx
    u0 = to_spectral(g, 1e-3 * np.sin(x)[:, None] * np.sin(2.0 * np.pi * g.y)[None, :])

    def error(h: float) -> float:
        st = make_state(u0)
        for _ in range(int(round(1.0 / h))):
            st = stepper(st, h)
        ref = _oscillator(mu, st.t) * u0.rows
        return float(np.abs(st.u.rows - ref).max() / np.abs(ref).max())

    err = error(dt)
    ratio = err / max(error(0.5 * dt), 1e-300)
    ok = err <= 1e-6 and 10.0 <= ratio <= 22.0
    return CheckResult(
        name,
        ok,
        f"relative error {err:.3e} at t=1 (tolerance 1e-06), halving ratio {ratio:.1f}",
    )


def check_linear_mode_prandtl(Ny: int = 65, dt: float = 1e-3) -> CheckResult:
    """Single linear mode against the damped-oscillator closed form,
    converging at fourth order in dt."""
    return _linear_mode_check(
        "linear-mode-prandtl", Ny, dt, _mu_discrete(Ny),
        lambda u0: PrandtlState(u=u0, ut=Field.zeros(u0.grid)),
        lambda s, h: prandtl_step(s, h, linear=True),
    )


def check_linear_mode_hns(
    Ny: int = 65, eps: float = 0.5, dt: float = 1e-3
) -> CheckResult:
    """The scaled system's u-mode against the damped oscillator.

    Runs linear, without the advection and the projection, so the single
    u-mode obeys the wave equation with mu = mu_discrete + eps^2 xi^2.
    """
    def make_state(u0):
        z = Field.zeros(u0.grid)
        return HnsState(u=u0, v=z, ut=z, vt=z, eps=eps)

    return _linear_mode_check(
        "linear-mode-hns", Ny, dt, _mu_discrete(Ny) + eps**2, make_state,
        lambda s, h: hns_step(s, h, linear=True),
    )


def verify_all(Nx: int = 64, Ny: int = 33, corrupt: str | None = None):
    """Run the whole suite; returns the list of CheckResults.

    corrupt="phi" injects a defect into the partition-of-unity sums to
    exercise the failure path.
    """
    if corrupt not in (None, "phi"):
        raise ValueError(f"unknown fault injection {corrupt!r}")
    grid = Grid(Nx, Ny)
    p = GevreyParams()
    bump = 1e-6 if corrupt == "phi" else 0.0
    return [
        check_partition_of_unity(grid, bump=bump),
        check_low_frequency_identity(grid),
        check_block_overlap(grid),
        check_bernstein(grid),
        check_bony(grid),
        check_theta_ode(p),
        check_radius_closed_form(p),
        check_phase_subadditivity(p),
        check_inverse_pair(grid, p),
        check_linear_mode_prandtl(Ny=Ny),
        check_linear_mode_hns(Ny=Ny),
    ]
