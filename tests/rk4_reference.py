"""Reference RK4 integrator of the full composite master equation.

Solves the (two qubits) x (truncated Fock space) master equation

    drho/dt = -i [H, rho] + 2 kappa D[a] rho
              + (gamma_1/2) D[Z1] rho + (gamma_2/2) D[Z2] rho,
    H = Delta a^dag a + (g1/2)(a + a^dag) Z1 + (g2/2)(a + a^dag) Z2,

on dense 4 n_ph x 4 n_ph matrices, with fixed-step classical RK4 and
re-Hermitization after every step. It shares no stepping code with
resgate.lindblad's block engine, which is why the tests compare that engine
against it. build_hamiltonian takes SI-valued DerivedGateParams and returns
rad/ns; lindblad_rhs and evolve_rk4 work in rad/ns, 1/ns and ns. Basis
ordering is qubit_1 (x) qubit_2 (x) Fock, the Fock index fastest. The
cavity operators and states (annihilation, coherent_ket, coherent_rho,
vacuum_rho) are built here from their definitions, not taken from resgate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from resgate import DerivedGateParams, SimDiagnostics
from resgate.errors import DomainError
from resgate.lindblad import DEFAULT_N_PH, _run_health

DEFAULT_TRACE_DRIFT_TOL = 1e-6


def annihilation(n_ph: int) -> np.ndarray:
    """The lowering operator a on levels 0..n_ph-1: <m-1|a|m> = sqrt(m)."""
    return np.diag(np.sqrt(np.arange(1, n_ph)), k=1).astype(complex)


def coherent_ket(n_ph: int, beta: complex) -> np.ndarray:
    """|beta> on n_ph levels from its definition, truncated and renormalized."""
    ket = np.array([beta**m / math.sqrt(math.factorial(m)) for m in range(n_ph)],
                   dtype=complex)
    return ket / np.linalg.norm(ket)


def coherent_rho(n_ph: int, beta: complex) -> np.ndarray:
    """|beta><beta| on n_ph levels, truncated and renormalized."""
    ket = coherent_ket(n_ph, beta)
    return np.outer(ket, ket.conj())


def vacuum_rho(n_ph: int) -> np.ndarray:
    """|0><0| on n_ph levels."""
    return coherent_rho(n_ph, 0.0)


@dataclass(frozen=True)
class CompositeState:
    """Density matrix on qubit_1 (x) qubit_2 (x) Fock (Fock index fastest)."""

    matrix: np.ndarray
    n_ph: int

    def __post_init__(self):
        d = 4 * self.n_ph
        if np.asarray(self.matrix).shape != (d, d):
            raise DomainError(
                f"state shape {np.asarray(self.matrix).shape} does not match 4*{self.n_ph}"
            )

    @classmethod
    def from_parts(cls, qubit_rho: np.ndarray, cavity_rho: np.ndarray) -> "CompositeState":
        cavity_rho = np.asarray(cavity_rho, dtype=complex)
        return cls(
            matrix=np.kron(np.asarray(qubit_rho, dtype=complex), cavity_rho),
            n_ph=cavity_rho.shape[0],
        )

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @property
    def purity(self) -> float:
        return float(np.einsum("ij,ji->", self.matrix, self.matrix).real)

    @property
    def mean_photon(self) -> float:
        diag = np.einsum("ii->i", self.matrix).real.reshape(4, self.n_ph)
        return float((diag * np.arange(self.n_ph)).sum())

    @property
    def top_level_pop(self) -> float:
        diag = np.einsum("ii->i", self.matrix).real.reshape(4, self.n_ph)
        return float(diag[:, -1].sum())

    def qubit_rho(self) -> np.ndarray:
        r = self.matrix.reshape(4, self.n_ph, 4, self.n_ph)
        return np.einsum("ikjk->ij", r)

    def cavity_rho(self) -> np.ndarray:
        r = self.matrix.reshape(4, self.n_ph, 4, self.n_ph)
        return np.einsum("inim->nm", r)


def _full_ops(n_ph: int) -> dict:
    """Operators lifted to the composite space (qubit_1 x qubit_2 x Fock)."""
    a = annihilation(n_ph)
    i_f = np.eye(n_ph, dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    i2 = np.eye(2, dtype=complex)
    return {
        "a": np.kron(np.eye(4, dtype=complex), a),
        "n": np.kron(np.eye(4, dtype=complex), a.conj().T @ a),
        "x_f": np.kron(np.eye(4, dtype=complex), a + a.conj().T),
        "z1": np.kron(np.kron(z, i2), i_f),
        "z2": np.kron(np.kron(i2, z), i_f),
    }


def build_hamiltonian(params: DerivedGateParams, n_ph: int = DEFAULT_N_PH) -> np.ndarray:
    """Drive-frame Hamiltonian in rad/ns on the composite space.

    H = Delta a^dag a + (g1/2)(a + a^dag) Z1 + (g2/2)(a + a^dag) Z2.
    Commutes with Z1 and Z2 (the gate is diagonal in the qubit basis);
    Hermitian by construction.
    """
    ops = _full_ops(n_ph)
    return (
        params.delta_rad_ns * ops["n"]
        + 0.5 * params.g1_rad_ns * ops["x_f"] @ ops["z1"]
        + 0.5 * params.g2_rad_ns * ops["x_f"] @ ops["z2"]
    )


def lindblad_rhs(
    rho: np.ndarray, h: np.ndarray, kappa: float, gamma_1: float, gamma_2: float
) -> np.ndarray:
    """Master-equation right-hand side (internal units: rad/ns, 1/ns).

    Works on a single (D, D) matrix or a batch (B, D, D). The derivative is
    exactly traceless: photon loss enters as 2*kappa D[a], qubit dephasing as
    (gamma/2) D[Z] so coherences decay at gamma itself.
    """
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[-1]
    ops = _full_ops(d // 4)
    return _rhs(rho, h, ops, kappa, gamma_1, gamma_2)


def _rhs(rho, h, ops, kappa, gamma_1, gamma_2):
    out = -1j * (h @ rho - rho @ h)
    if kappa != 0.0:
        a, ad_a = ops["a"], ops["n"]
        out += 2.0 * kappa * (
            a @ rho @ a.conj().T - 0.5 * (ad_a @ rho + rho @ ad_a)
        )
    if gamma_1 != 0.0:
        z1 = ops["z1"]
        out += 0.5 * gamma_1 * (z1 @ rho @ z1 - rho)
    if gamma_2 != 0.0:
        z2 = ops["z2"]
        out += 0.5 * gamma_2 * (z2 @ rho @ z2 - rho)
    return out


def _hermitize(rho: np.ndarray) -> np.ndarray:
    return 0.5 * (rho + np.conj(np.swapaxes(rho, -1, -2)))


def evolve_rk4(
    rho0: CompositeState,
    h: np.ndarray,
    kappa: float,
    gamma_1: float,
    gamma_2: float,
    t_total_ns: float,
    steps: int,
    *,
    trace_drift_tol: float = DEFAULT_TRACE_DRIFT_TOL,
) -> tuple[CompositeState, SimDiagnostics]:
    """Evolve one composite state (internal units; H from build_hamiltonian)
    over t_total_ns in ``steps`` equal RK4 steps.

    Out-of-tolerance trace drift or guard-level population does not raise:
    it comes back as diagnostics.failed with the reasons spelled out, for
    the caller to check. Trace drift is measured
    against the initial trace (photon loss is trace-preserving in the
    Lindblad form, so drift is pure integrator error).
    """
    n_ph = rho0.n_ph
    ops = _full_ops(n_ph)
    dt = t_total_ns / steps
    rho = np.array(rho0.matrix, dtype=complex)
    init_trace = float(np.trace(rho).real)
    max_top = max_drift = 0.0
    half = 0.5 * dt
    for step in range(steps + 1):
        if step:
            k1 = _rhs(rho, h, ops, kappa, gamma_1, gamma_2)
            k2 = _rhs(rho + half * k1, h, ops, kappa, gamma_1, gamma_2)
            k3 = _rhs(rho + half * k2, h, ops, kappa, gamma_1, gamma_2)
            k4 = _rhs(rho + dt * k3, h, ops, kappa, gamma_1, gamma_2)
            rho = _hermitize(rho + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))
        pops = np.diagonal(rho).real
        max_top = max(max_top, float(pops[n_ph - 1::n_ph].sum()))
        max_drift = max(max_drift, abs(float(pops.sum()) - init_trace))
    diag = _run_health(max_top, steps, dt, n_ph)
    if max_drift > trace_drift_tol:
        reasons = (f"trace drift {max_drift:.3e} exceeds {trace_drift_tol:.0e}",)
        diag = replace(diag, failed=True, failure_reasons=reasons + diag.failure_reasons)
    return CompositeState(matrix=rho, n_ph=n_ph), diag
