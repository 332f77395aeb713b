"""Acceptance gate: the nine quantitative properties the package promises.

Each test pins one end-to-end property at its contractual tolerance:
the dyadic partition identities, paraproduct reconstruction, the
shrinking-radius weight machinery, closed-form linear-mode accuracy of
both steppers, exact conservation of the vertical mean, the
divergence constraint of the scaled system, exponential decay with a
bounded weighted envelope, the aspect-ratio convergence rate, and
bit-identical reruns.  These tolerances are the contract; loosening
them is an API break, not a test fix.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from stripflow import hns as hns_module
from stripflow.diagnostics import decay_fit, energy_E1, energy_E_s
from stripflow.gevrey import GevreyParams, apply_gevrey, make_gevrey_data
from stripflow.gevrey import phi as gevrey_phi
from stripflow.gevrey import radius, theta
from stripflow.grid import (
    Field,
    Grid,
    dx,
    dy,
    l2_norm,
    multiply,
    to_physical,
    to_spectral,
)
from stripflow.harness import RunConfig, cmd_run, cmd_sweep
from stripflow.hns import HnsState, hns_step, make_hns_data
from stripflow.paley import chi, get_bank, phi
from stripflow.prandtl import PrandtlState, prandtl_step

P = GevreyParams()
FOUR_PI_SQ = 4.0 * np.pi**2


def random_field(g, seed):
    """Random real field on the dealiased band, x-mean removed."""
    rng = np.random.default_rng(seed)
    shape = (g.band, g.Ny)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c[0, :] = 0.0
    return Field(g, c)


def single_mode(g, amp=1e-3):
    """amp sin(x) sin(2 pi y): one x-mode carrying the lowest mean-free
    eigenvector of the second-difference operator."""
    x = np.arange(g.Nx) * g.Lx / g.Nx
    vals = amp * np.sin(x)[:, None] * np.sin(2.0 * np.pi * g.y)[None, :]
    return to_spectral(g, vals)


def mu_discrete(Ny):
    """Eigenvalue of -d_yy (second differences) on sin(2 pi y); -> 4 pi^2."""
    h = 1.0 / (Ny - 1)
    return 2.0 * (1.0 - np.cos(2.0 * np.pi * h)) / h**2


def damped_wave_factor(mu, t):
    """A(t) solving A'' + A' + mu A = 0, A(0) = 1, A'(0) = 0 (mu > 1/4)."""
    om = np.sqrt(mu - 0.25)
    return np.exp(-0.5 * t) * (np.cos(om * t) + np.sin(om * t) / (2.0 * om))


def test_dyadic_partition_and_overlap():
    """Partition residuals <= 1e-12 at every grid frequency, dense in tau;
    blocks two or more apart share no support (product <= 1e-13)."""
    g = Grid(128, 33)
    bank = get_bank(g)
    ks = np.arange(-14, 15)

    tau = np.logspace(-3.0, 3.0, 4001)
    dense = sum(phi(tau / 2.0**k) for k in ks)
    assert np.abs(dense - 1.0).max() <= 1e-12

    xi = g.abs_xi[g.abs_xi > 0.0]
    on_grid = sum(phi(xi / 2.0**k) for k in ks)
    assert np.abs(on_grid - 1.0).max() <= 1e-12
    nz = g.band_xi > 0.0
    assert np.abs(bank.phi_samples[:, nz].sum(axis=0) - 1.0).max() <= 1e-12

    low_dense = chi(tau) + sum(phi(tau / 2.0**j) for j in range(0, 15))
    low_grid = chi(xi) + sum(phi(xi / 2.0**j) for j in range(0, 15))
    assert np.abs(low_dense - 1.0).max() <= 1e-12
    assert np.abs(low_grid - 1.0).max() <= 1e-12

    worst = 0.0
    for j in range(-5, 6):
        for k in range(-5, 6):
            if abs(j - k) >= 2:
                worst = max(worst, (phi(tau / 2.0**j) * phi(tau / 2.0**k)).max())
    for i, ki in enumerate(bank.ks):
        for j, kj in enumerate(bank.ks):
            if abs(int(ki) - int(kj)) >= 2:
                worst = max(
                    worst, np.abs(bank.phi_samples[i] * bank.phi_samples[j]).max()
                )
    assert worst <= 1e-13


def test_bony_reconstruction():
    """Paraproducts plus remainder rebuild the dealiased product to a
    relative L2 error <= 1e-10 on 20 random band-limited pairs."""
    from stripflow.paley import bony

    g = Grid(128, 33)
    for seed in range(20):
        f = random_field(g, seed)
        h = random_field(g, seed + 1000)
        Tfh, Thf, R = bony(f, h)
        rebuilt = Tfh + Thf + R
        prod = multiply(f, h)
        assert l2_norm(rebuilt - prod) <= 1e-10 * l2_norm(prod), f"seed {seed}"


def test_weight_machinery():
    """theta matches its ODE (<= 1e-10 relative), the radius matches the
    closed form (<= 1e-13), the phase is subadditive on a 100 x 100
    frequency grid, and conjugation inverts (<= 1e-10 relative)."""
    tg = np.linspace(0.0, 10.0, 201)
    sol = solve_ivp(
        lambda t, th: P.sqrt_delta - 0.5 * P.K * th,
        (0.0, 10.0),
        [0.0],
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )
    exact = theta(tg, P)
    assert np.abs(sol.sol(tg)[0] - exact).max() <= 1e-10 * exact.max()

    closed = 0.5 * P.a * (1.0 + np.exp(-0.5 * P.K * tg))
    assert np.abs((P.a - P.lam * theta(tg, P)) - closed).max() <= 1e-13
    assert np.abs(radius(tg, P) - closed).max() <= 1e-13

    xi = np.logspace(-2.0, 3.0, 100)
    for t in (0.0, 0.5, 2.0, 10.0):
        one = gevrey_phi(t, xi, P)
        pair = gevrey_phi(t, xi[:, None] + xi[None, :], P)
        gap = pair - one[:, None] - one[None, :]
        assert gap.max() <= 1e-13, f"subadditivity fails at t={t}"

    g = Grid(32, 17)
    rng = np.random.default_rng(7)
    f = Field.zeros(g)
    for m in range(1, 6):
        col = rng.standard_normal(g.Ny) + 1j * rng.standard_normal(g.Ny)
        f.rows[m] = col
    for t in (0.0, 1.0, 7.5):
        back = apply_gevrey(apply_gevrey(f, t, P, +1), t, P, -1)
        assert l2_norm(back - f) <= 1e-10 * l2_norm(f), f"t={t}"


def test_linear_mode_oracle():
    """With advection off, both steppers track the damped oscillator
    A'' + A' + mu A = 0 on a single mode to <= 1e-6 relative at t = 1
    (dt = 1e-3), with a dt-halving error ratio in [10, 22] (4th order).

    sin(2 pi y) is an exact eigenvector of the discrete vertical
    Laplacian, so the only discrepancy is time-integration error; its
    eigenvalue replaces 4 pi^2 (relative gap < 1e-3 at this width).
    """
    Ny = 65
    mu0 = mu_discrete(Ny)
    assert abs(mu0 - FOUR_PI_SQ) <= 1e-3 * FOUR_PI_SQ

    def prandtl_error(dt):
        g = Grid(8, Ny)
        u0 = single_mode(g)
        state = PrandtlState(u=u0, ut=Field.zeros(g))
        for _ in range(int(round(1.0 / dt))):
            state = prandtl_step(state, dt, linear=True)
        target = damped_wave_factor(mu0, 1.0)
        err = l2_norm(Field(g, state.u.rows - target * u0.rows))
        return err / (abs(target) * l2_norm(u0))

    def hns_error(dt, eps=0.5):
        g = Grid(8, Ny)
        u0 = single_mode(g)
        state = HnsState(
            u=u0, v=Field.zeros(g), ut=Field.zeros(g), vt=Field.zeros(g), eps=eps
        )
        for _ in range(int(round(1.0 / dt))):
            state = hns_step(state, dt, linear=True)
        target = damped_wave_factor(mu0 + eps**2 * 1.0, 1.0)  # xi = 1
        err = l2_norm(Field(g, state.u.rows - target * u0.rows))
        return err / (abs(target) * l2_norm(u0))

    for error in (prandtl_error, hns_error):
        coarse = error(1e-3)
        fine = error(5e-4)
        assert coarse <= 1e-6, error.__name__
        assert 10.0 <= coarse / fine <= 22.0, error.__name__


def test_mean_conservation():
    """Nonlinear small-data run, T = 10: the vertical mean of u stays
    <= 1e-10 at every x node throughout, and the wall rows stay exactly
    zero (conservative pressure law, factor 1)."""
    g = Grid(128, 65)
    u0, u1 = make_gevrey_data(g, P, amplitude=1e-3, m_max=4)
    dt = 0.25 * g.dy
    state = PrandtlState(u=u0, ut=u1)
    worst = np.abs(to_physical(state.u) @ g.trapz_w).max()
    for i in range(int(round(10.0 / dt))):
        state = prandtl_step(state, dt, check=(i + 1) % 128 == 0)
        if (i + 1) % 16 == 0:
            col = to_physical(state.u) @ g.trapz_w
            worst = max(worst, np.abs(col).max())
            assert np.all(state.u.rows[:, [0, -1]] == 0.0)
            assert np.all(state.ut.rows[:, [0, -1]] == 0.0)
    assert worst <= 1e-10


def test_divergence_constraint(monkeypatch):
    """Nonlinear scaled run at eps = 0.1: every stage acceleration is
    divergence-free to 1e-8 relative, and the state divergence stays
    <= 1e-6 relative at all output times."""
    g = Grid(64, 65)
    u0, _ = make_gevrey_data(g, P, amplitude=1e-3, m_max=4)
    state = make_hns_data(u0, P, eps=0.1)
    dt = 0.25 * g.dy

    stage_divs = []
    real_rhs = hns_module.hns_rhs

    def recording_rhs(s, **kw):
        out = real_rhs(s, **kw)
        acc_u, acc_v = (Field(g, rows) for rows in out.rows)
        scale = l2_norm(dx(acc_u)) + l2_norm(dy(acc_v))
        resid = l2_norm(dx(acc_u) + dy(acc_v))
        stage_divs.append(resid / scale if scale > 0.0 else 0.0)
        return out

    monkeypatch.setattr(hns_module, "hns_rhs", recording_rhs)
    state_divs = [state.divergence_rel()]
    n_steps = int(round(2.0 / dt))
    for i in range(n_steps):
        state = hns_step(state, dt, check=(i + 1) % 64 == 0)
        if (i + 1) % 8 == 0:
            state_divs.append(state.divergence_rel())

    assert len(stage_divs) == 4 * n_steps  # every stage was seen
    assert max(stage_divs) <= 1e-8
    assert max(state_divs) <= 1e-6


def test_exponential_decay():
    """Small-data runs over t in [0, 20], both systems: the fitted L2
    decay rate is <= -0.4, and the weighted envelope
    e^{K t} |u_Phi(t)|_{B^{1/2}} never exceeds 10 x its initial value."""
    g = Grid(32, 33)
    u0, u1 = make_gevrey_data(g, P, amplitude=1e-4, m_max=2)
    dt = 0.25 * g.dy
    n_steps = int(round(20.0 / dt))

    state = PrandtlState(u=u0, ut=u1)
    series = [(state.t, l2_norm(state.u))]
    samples = [state]
    for i in range(n_steps):
        state = prandtl_step(state, dt, check=(i + 1) % 200 == 0)
        if (i + 1) % 16 == 0:
            series.append((state.t, l2_norm(state.u)))
            samples.append(state)
    rate, _ = decay_fit(series)
    assert rate <= -0.4
    envelope = energy_E_s(samples, P).point_norms["u"]
    assert np.all(envelope <= 10.0 * envelope[0])

    state = make_hns_data(u0, P, eps=0.5)
    series = [(state.t, l2_norm(state.u))]
    samples = [state]
    for i in range(n_steps):
        state = hns_step(state, dt, check=(i + 1) % 200 == 0)
        if (i + 1) % 16 == 0:
            series.append((state.t, l2_norm(state.u)))
            samples.append(state)
    rate, _ = decay_fit(series)
    assert rate <= -0.4
    envelope = energy_E1(samples, 0.5, P).point_norms["u"]
    assert np.all(envelope <= 10.0 * envelope[0])


def test_aspect_ratio_convergence(tmp_path):
    """eps sweep {0.1, 0.05, 0.025, 0.0125} from identical data with a
    zero derivative pair: the sup-in-time L2 gap to the limit system
    decreases strictly with eps and fits a log-log slope >= 0.9."""
    cfg = RunConfig(
        Nx=128,
        Ny=65,
        amplitude=1e-4,
        m_max=4,
        T_final=2.0,
        kind="sweep",
        eps_list=(0.1, 0.05, 0.025, 0.0125),
        directory=str(tmp_path / "sweep"),
        sample_every=10,
    )
    result = cmd_sweep(cfg)
    sups = np.array(result.sup_errors)
    assert np.all(np.diff(sups) < 0.0), sups
    assert result.slope is not None and result.slope >= 0.9, result.slope


def test_deterministic_output(tmp_path):
    """Rerunning an identical config reproduces the CSV byte for byte."""
    for kind, eps in (("prandtl", 1.0), ("hns", 0.5)):
        cfg = RunConfig(
            Nx=32,
            Ny=33,
            amplitude=1e-4,
            m_max=2,
            T_final=0.5,
            kind=kind,
            eps=eps,
            directory=str(tmp_path / f"det-{kind}"),
            sample_every=4,
        )
        first = (cmd_run(cfg) / "energy.csv").read_bytes()
        second = (cmd_run(cfg) / "energy.csv").read_bytes()
        assert first == second, kind
