"""Shared fixtures: the default device point and synthetic internal-unit params."""

from __future__ import annotations

import os

# One BLAS thread unless the caller chose otherwise. The matrices here are at
# most a few hundred rows, where OpenBLAS's threads cost more than they save
# (the suite runs about twice as fast on 2 cores). It must be set before numpy
# loads; neither pytest nor hypothesis imports numpy before this file.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest

from resgate import (
    DerivedGateParams,
    NoiseSpec,
    ResonatorSpec,
    gate_schedule,
)
from resgate.constants import HBAR_J_S, TWO_PI, uev_to_J


def make_params(
    g_rad_ns: float, kappa_per_ns: float, n: int = 2, delta_sign: int = 1,
    g2_over_g1: float = 1.0,
) -> DerivedGateParams:
    """Gate parameters straight in internal units (equal couplings by default).

    Bypasses the device layer: pick g (qubit 1; qubit 2 gets g2_over_g1
    times it) and kappa, let the schedule fix Delta and t_g. V0/chi/J_tilde
    are not used by the channel or the simulator, so they are left at zero.
    """
    g_J = g_rad_ns * 1e9 * HBAR_J_S
    delta, t_g = gate_schedule(g_J, g2_over_g1 * g_J, n)
    return DerivedGateParams(
        V0=0.0,
        kappa=kappa_per_ns * 1e9,
        g1=g_J,
        g2=g2_over_g1 * g_J,
        chi=0.0,
        Delta=delta_sign * delta,
        t_g=t_g,
        n=n,
        J_tilde=0.0,
    )


@pytest.fixture
def res() -> ResonatorSpec:
    """Default resonator point: 6.5 GHz, 5 kOhm, Q = 20000."""
    return ResonatorSpec(omega_r=TWO_PI * 6.5e9, Z_r=5000.0, Q=20000.0)


@pytest.fixture
def noise() -> NoiseSpec:
    """Default charge-noise model (S_eps = 1.4e-16 eV^2, beta = 0.67, Hahn eta)."""
    return NoiseSpec()


@pytest.fixture
def eps_a() -> float:
    """Default exchange exponential scale, 5 ueV in joules."""
    return uev_to_J(5.0)
