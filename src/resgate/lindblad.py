"""Numeric master-equation oracle for the resonator-mediated gate.

Solves the full (two qubits) x (truncated Fock space) master equation

    drho/dt = -i [H, rho] + 2 kappa D[a] rho
              + (gamma_1/2) D[Z1] rho + (gamma_2/2) D[Z2] rho,
    H = Delta a^dag a + (g1/2)(a + a^dag) Z1 + (g2/2)(a + a^dag) Z2,

with D[c] rho = c rho c^dag - {c^dag c, rho}/2. The Hamiltonian is written
in the frame rotating at the drive frequency, so it is time-independent and
nothing oscillates faster than Delta. The reference evolve_rk4 integrates
the composite state with fixed-step classical RK4 and re-Hermitization
after every step; the default 20 ps step resolves everything comfortably.
With the (gamma/2) D[Z] convention a single-qubit coherence decays at
exactly gamma (the 1/T2 rate).

Unit boundaries: the high-level entry points (build_hamiltonian,
extract_channel, polaron_residual, thermal_average_channel) take SI-valued
DerivedGateParams and dephasing rates in 1/s; the low-level pieces
(lindblad_rhs, evolve_rk4) work in the internal system rad/ns, 1/ns, ns.

Basis ordering is qubit_1 (x) qubit_2 (x) Fock, i.e. the Fock index runs
fastest. H, the photon loss and the dephasing all commute with Z1 and Z2,
so the qubit block r_ij = <i|rho|j> (an n_ph x n_ph cavity operator)
evolves on its own under a fixed n_ph^2 x n_ph^2 generator L_ij. The
effective two-qubit channel is therefore diagonal in the row-major vec
basis: rho_ij -> C_ij rho_ij with C_ij = Tr[expm(L_ij t_g) cav].
One block engine serves every production path: extract_channel, the
trajectory dump (trajectory_rows) and the polaron check (polaron_residual)
all step the blocks with expm(L_ij dt) on the StepPolicy grid through one
stepper (_BlockTracks.run) and read their numbers off the blocks.
Branches come in sign-reversed pairs (lam_{3-k} = -lam_k), and the cavity
parity Pi = diag((-1)^m) maps L(lam_i, lam_j) onto L(-lam_i, -lam_j)
exactly, so block (3-j, 3-i) is read off block (i, j) evolved from
Pi cav Pi: one propagator per orbit of (i, j) <-> (3-j, 3-i), 4 with equal
couplings and 6 with unequal ones. Orbits with lam_i = +-lam_j commute with
an antiunitary (r -> r^dag or r -> Pi r^dag Pi), so in that antiunitary's
fixed basis both their expm(L dt) and their stepping are real arithmetic:
float64 propagators acting on at most two float64 columns per orbit, read
straight off for the guard populations and the traces and mapped back to
blocks only where whole blocks are needed. Only 1 orbit of 4 (2 of 6 with
unequal couplings) takes the complex expm and complex steps. Each orbit
also keeps P = E^8 (three squarings of its step propagator E), so
extract_channel advances 8 grid steps per matmul and reads the guard
populations of the steps in between off 8 precomputed rows of E^j; the
trajectory dump steps at its own stride through the same stepper. The
truncated block generator preserves the trace exactly (Tr(a r a^dag) =
Tr(n r), and a commutator is traceless), so the block engine checks only
the guard-level population.
evolve_rk4 integrates the full composite state, checks its own trace drift
(pure integrator error) and is kept only as the independent reference the
tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import TwoQubitChannel, drive_frame_displacement, ideal_gate_unitary
from .device import DerivedGateParams
from .errors import DomainError
from .fidelity import fit_local_z

DEFAULT_N_PH = 6  # levels 0..5: one guard level above the 4-photon working range
DEFAULT_TOP_LEVEL_THRESHOLD = 1e-4
DEFAULT_TRACE_DRIFT_TOL = 1e-6
# Z1, Z2 eigenvalues of the qubit basis states |00>, |01>, |10>, |11>.
_BRANCHES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class FockSpace:
    """Truncated oscillator space with levels 0..n_levels-1."""

    n_levels: int

    def __post_init__(self):
        if not (isinstance(self.n_levels, int) and self.n_levels >= 2):
            raise DomainError(f"need at least 2 Fock levels, got {self.n_levels!r}")

    def annihilation(self) -> np.ndarray:
        return np.diag(np.sqrt(np.arange(1, self.n_levels, dtype=float)), k=1).astype(complex)

    def number_op(self) -> np.ndarray:
        return np.diag(np.arange(self.n_levels, dtype=float)).astype(complex)

    def vacuum_rho(self) -> np.ndarray:
        rho = np.zeros((self.n_levels, self.n_levels), dtype=complex)
        rho[0, 0] = 1.0
        return rho

    def coherent_rho(self, beta: complex) -> np.ndarray:
        """|beta><beta| truncated to the space and renormalized."""
        n = np.arange(self.n_levels)
        log_fact = np.cumsum(np.log(np.maximum(n, 1)))
        amps = np.exp(-0.5 * abs(beta) ** 2 + n * np.log(complex(beta)) - 0.5 * log_fact) \
            if beta != 0 else np.eye(self.n_levels, 1, dtype=complex).ravel()
        amps = np.asarray(amps, dtype=complex)
        amps /= math.sqrt(float(np.vdot(amps, amps).real))
        return np.outer(amps, amps.conj())


@dataclass(frozen=True)
class StepPolicy:
    """Fixed-step rule: dt_ns unless that lands outside [min_steps, max_steps]."""

    dt_ns: float = 0.020
    min_steps: int = 200
    max_steps: int = 10000

    def resolve(self, t_total_ns: float) -> tuple[int, float]:
        """(step count, actual dt) for a run of t_total_ns."""
        if t_total_ns <= 0:
            raise DomainError(f"total time must be positive, got {t_total_ns}")
        steps = int(round(t_total_ns / self.dt_ns))
        steps = min(max(steps, self.min_steps), self.max_steps)
        return steps, t_total_ns / steps


@dataclass(frozen=True)
class SimDiagnostics:
    """Run health: guard-level population, grid, Fock size, and failure flags."""

    max_top_level_pop: float
    steps: int
    dt_ns: float
    n_ph: int
    top_level_threshold: float = DEFAULT_TOP_LEVEL_THRESHOLD
    failed: bool = False
    failure_reasons: tuple[str, ...] = ()

    def merged_with(self, other: "SimDiagnostics") -> "SimDiagnostics":
        """Worst-case combination (used when aggregating Monte-Carlo samples)."""
        return SimDiagnostics(
            max_top_level_pop=max(self.max_top_level_pop, other.max_top_level_pop),
            steps=max(self.steps, other.steps),
            dt_ns=max(self.dt_ns, other.dt_ns),
            n_ph=max(self.n_ph, other.n_ph),
            top_level_threshold=min(self.top_level_threshold, other.top_level_threshold),
            failed=self.failed or other.failed,
            failure_reasons=self.failure_reasons + other.failure_reasons,
        )

    def to_json_dict(self) -> dict:
        return {
            "max_top_level_pop": self.max_top_level_pop,
            "steps": self.steps,
            "dt_ns": self.dt_ns,
            "n_ph": self.n_ph,
            "top_level_threshold": self.top_level_threshold,
            "failed": self.failed,
            "failure_reasons": list(self.failure_reasons),
        }


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
    fock = FockSpace(n_ph)
    a = fock.annihilation()
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


def _run_health(
    max_top: float, steps: int, dt: float, n_ph: int, top_level_threshold: float,
    reasons: tuple[str, ...] = (),
) -> SimDiagnostics:
    """Diagnostics from the worst guard-level population of a run, after any
    failure ``reasons`` the caller found first."""
    reasons = list(reasons)
    if max_top > top_level_threshold:
        reasons.append(
            f"top Fock level population {max_top:.3e} exceeds {top_level_threshold:.0e} "
            f"(n_ph = {n_ph} too small for these parameters)"
        )
    return SimDiagnostics(
        max_top_level_pop=max_top,
        steps=steps,
        dt_ns=dt,
        n_ph=n_ph,
        top_level_threshold=top_level_threshold,
        failed=bool(reasons),
        failure_reasons=tuple(reasons),
    )


def evolve_rk4(
    rho0: CompositeState,
    h: np.ndarray,
    kappa: float,
    gamma_1: float,
    gamma_2: float,
    t_total_ns: float,
    policy: StepPolicy = StepPolicy(),
    *,
    top_level_threshold: float = DEFAULT_TOP_LEVEL_THRESHOLD,
    trace_drift_tol: float = DEFAULT_TRACE_DRIFT_TOL,
) -> tuple[CompositeState, SimDiagnostics]:
    """Evolve one composite state (internal units; H from build_hamiltonian).

    Out-of-tolerance trace drift or guard-level population does not raise:
    it comes back as diagnostics.failed with the reasons spelled out, so
    sweeps can record the failure and continue. Trace drift is measured
    against the initial trace (photon loss is trace-preserving in the
    Lindblad form, so drift is pure integrator error).
    """
    n_ph = rho0.n_ph
    ops = _full_ops(n_ph)
    steps, dt = policy.resolve(t_total_ns)
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
    reasons = ()
    if max_drift > trace_drift_tol:
        reasons = (f"trace drift {max_drift:.3e} exceeds {trace_drift_tol:.0e}",)
    return CompositeState(matrix=rho, n_ph=n_ph), _run_health(
        max_top, steps, dt, n_ph, top_level_threshold, reasons
    )


@dataclass(frozen=True)
class CavityPrep:
    """Initial cavity state: vacuum, coherent(alpha), or thermal(n_bar, samples)."""

    kind: str = "vacuum"
    alpha: complex = 0j
    n_bar: float = 0.0
    samples: int = 64

    def __post_init__(self):
        if self.kind not in ("vacuum", "coherent", "thermal"):
            raise DomainError(f"unknown cavity preparation {self.kind!r}")
        if self.n_bar < 0:
            raise DomainError(f"n_bar must be non-negative, got {self.n_bar}")
        if self.samples < 1:
            raise DomainError(f"samples must be >= 1, got {self.samples}")

    @classmethod
    def vacuum(cls) -> "CavityPrep":
        return cls()

    @classmethod
    def coherent(cls, alpha: complex) -> "CavityPrep":
        return cls(kind="coherent", alpha=complex(alpha))

    @classmethod  # samples defaults to the field's default above
    def thermal(cls, n_bar: float, samples: int = samples) -> "CavityPrep":
        return cls(kind="thermal", n_bar=n_bar, samples=samples)


def choose_n_ph(max_amplitude: float, n_ph_floor: int = DEFAULT_N_PH,
                tail: float = 1e-5) -> int:
    """Smallest Fock dimension keeping the guard level below ``tail``.

    ``max_amplitude`` is the largest coherent amplitude the run can reach
    (initial displacement plus the drive loop radius). The guard level of a
    coherent state |amp| is Poissonian, so walk the pmf until it drops
    below ``tail``.
    """
    lam = max_amplitude**2
    if lam == 0.0:
        return n_ph_floor
    k, log_p = 0, -lam
    while not (log_p < math.log(tail) and k > lam):
        k += 1
        log_p += math.log(lam) - math.log(k)
        if k > 1000:
            raise DomainError(f"amplitude {max_amplitude} needs an absurd Fock space")
    return max(n_ph_floor, k + 1)


def _loop_radius(params: DerivedGateParams) -> float:
    """Largest |alpha| a branch reaches during the loop (per the drive).

    Branch (s1, s2) is driven at amplitude lam = g1 s1 + g2 s2, and its
    displacement lam * alpha_unit(t) stays within |lam| / |i Delta + kappa|;
    the largest |lam| is |g1| + |g2| (the +/-2 branch for equal couplings).
    """
    lam = abs(params.g1_rad_ns) + abs(params.g2_rad_ns)
    return lam / math.hypot(params.delta_rad_ns, params.kappa_per_ns)


def _block_generator(params: DerivedGateParams, n_ph: int):
    """Generator maker for the qubit blocks r_ij = <i|rho|j> (internal units).

    Returns L(lam_i, lam_j), the n_ph^2 x n_ph^2 generator of a block whose
    row and column branches have amplitudes lam = g1 s1 + g2 s2 (branch
    (s1, s2)). With row-major vec(A X B) = (A (x) B^T) vec(X),

        L = -i(H_i (x) I - I (x) H_j^T) + 2 kappa a (x) a - kappa (n (x) I + I (x) n),
        H_i = Delta n + (lam_i/2)(a + a^dag).

    The (gamma/2) D[Z] dephasing only adds -c_ij, a multiple of the identity,
    so callers apply it as the factor exp(-c_ij t).
    """
    fock = FockSpace(n_ph)
    a, num = fock.annihilation().real, fock.number_op().real
    x, eye = a + a.T, np.eye(n_ph)
    n_left, n_right = np.kron(num, eye), np.kron(eye, num)
    kappa = params.kappa_per_ns
    base = (
        -1j * params.delta_rad_ns * (n_left - n_right)
        + kappa * (2.0 * np.kron(a, a) - n_left - n_right)
    )
    x_left, x_right = np.kron(x, eye), np.kron(eye, x)
    return lambda lam_i, lam_j: base + (-0.5j * lam_i) * x_left + (0.5j * lam_j) * x_right


def _branch_amplitudes(params: DerivedGateParams) -> list[float]:
    """lam = g1 s1 + g2 s2 for each qubit basis state (branch (s1, s2))."""
    return [params.g1_rad_ns * s1 + params.g2_rad_ns * s2 for s1, s2 in _BRANCHES]


def _dephasing_rates(gamma_1: float, gamma_2: float) -> np.ndarray:
    """c_ij in 1/ns (gamma in 1/s): gamma_k summed over the qubits k whose Z
    eigenvalues differ between branches i and j."""
    s = np.array(_BRANCHES)
    return 1e-9 * ((s[:, None, :] != s[None, :, :]) @ np.array([gamma_1, gamma_2]))


def _initial_cavity(params: DerivedGateParams, prep: CavityPrep, n_ph: int | None) -> np.ndarray:
    """Initial cavity rho of a vacuum or coherent preparation.

    With n_ph None, vacuum runs use the fixed default; a displaced cavity
    gets the space its excursion actually needs (initial offset + loop
    radius).
    """
    if n_ph is None:
        n_ph = (
            choose_n_ph(abs(prep.alpha) + _loop_radius(params))
            if prep.kind == "coherent" else DEFAULT_N_PH
        )
    fock = FockSpace(n_ph)
    return fock.vacuum_rho() if prep.kind == "vacuum" else fock.coherent_rho(prep.alpha)


def _expm(m: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported on first use so that importing resgate
    (and the analytic path) loads no scipy."""
    from scipy.linalg import expm

    return expm(m)


_HALF = math.sqrt(0.5)


def _conjugation(n_ph: int, lam_i: float, lam_j: float):
    """Index form of an antiunitary K (K^2 = 1) commuting with L(lam_i, lam_j), or None.

    r -> r^dag maps L(lam_i, lam_j) onto L(lam_j, lam_i), and r -> Pi r^dag Pi
    onto L(-lam_j, -lam_i); so the first commutes with L when lam_i = lam_j
    and the second when lam_i = -lam_j. Either one sends the row-major vec
    entry q = (b, a) to s * conj of entry p = (a, b). Returns the pairs p < q
    and their signs s (1, or (-1)^(a+b) for the parity form); the diagonal
    entries (a, a) are fixed by K with sign 1 in both forms.
    """
    if lam_i == lam_j:
        parity = False
    elif lam_i == -lam_j:
        parity = True
    else:
        return None
    levels = np.arange(n_ph)
    a, b = np.nonzero(levels[:, None] < levels)  # np.triu_indices(n_ph, 1), 4x cheaper
    signs = (-1.0) ** (a + b) if parity else np.ones(a.size)
    return a * n_ph + b, b * n_ph + a, signs


def _to_real(m: np.ndarray, p, q, s) -> np.ndarray:
    """real(W^H m W), overwriting m. W = S H is the unitary whose columns are
    the K-fixed vectors of _conjugation: e_p for a diagonal entry p = (a, a),
    (e_p + s e_q)/sqrt2 in column p and i(e_p - s e_q)/sqrt2 in column q.
    S scales entry q by s; H mixes each pair. For an m that commutes with K
    the result is exact up to rounding; the imaginary part dropped is zero."""
    mp, mq = m[:, p], m[:, q] * s
    m[:, p], m[:, q] = (mp + mq) * _HALF, (mp - mq) * (1j * _HALF)
    rp, rq = m[p], m[q] * s[:, None]
    out = m.real.copy()
    out[p], out[q] = ((rp + rq) * _HALF).real, ((rp - rq) * _HALF).imag
    return out


def _to_k_basis(v: np.ndarray, p, q, s) -> np.ndarray:
    """W^H v over the last axis, for the W of _to_real: a K-fixed v (one
    with v_q = s conj(v_p) and real diagonal entries) comes out real."""
    u = v.astype(complex)
    vp, vq = v[..., p], s * v[..., q]
    u[..., p], u[..., q] = (vp + vq) * _HALF, (vp - vq) * (-1j * _HALF)
    return u


def _from_k_basis(u: np.ndarray, p, q, s) -> np.ndarray:
    """W u over the last axis, the inverse of _to_k_basis."""
    v = u.astype(complex)
    up, uq = u[..., p], 1j * u[..., q]
    v[..., p], v[..., q] = (up + uq) * _HALF, (up - uq) * (s * _HALF)
    return v


def _step_propagator(generator, lam_i: float, lam_j: float, dt: float) -> np.ndarray:
    """expm(L(lam_i, lam_j) dt) in the basis its block is stepped in: where
    an antiunitary K commutes with L (_conjugation), W^H L W is real for the
    unitary W of K's fixed vectors, and this returns the real
    E = expm(real(W^H L dt W)) = W^H expm(L dt) W; elsewhere the complex
    expm(L dt). The real expm costs a fraction of the complex one; W is
    applied by index gathers, never built."""
    m = generator(lam_i, lam_j) * dt
    pairs = _conjugation(math.isqrt(m.shape[0]), lam_i, lam_j)
    return _expm(m) if pairs is None else _expm(_to_real(m, *pairs))


# qubit index pairs (i, j) of the blocks on and above the diagonal, row-major;
# those below are their adjoints
_UPPER = tuple((int(i), int(j)) for i, j in zip(*np.triu_indices(4)))
_CHUNK = 64  # rows held at once by _BlockTracks.run
# grid steps per macro step P = E^_MACRO (a power of two, built by squarings);
# extract_channel runs its tracks at this stride
_MACRO = 8
# propagator bytes stepped together in one batched matmul: the tracks of a
# group stay in a core's L2 cache across the _CHUNK rows they take in turn
_STEP_BYTES = 1 << 20


class _BlockTracks:
    """The blocks expm(L(lam_i, lam_j) k dt) cav of _UPPER on a time grid.

    Dephasing is left out (see _block_generator). run() steps the tracks
    and yields their states as rows of float64 numbers; guard holds where
    the guard-level populations of the four diagonal blocks sit in a row,
    peak is the largest of them over every grid step run() has passed,
    traces() reads the ten block traces off a row, and blocks() maps rows
    back to the ten (n_ph, n_ph) blocks.

    Orbit rule: branch 3 - k flips both Z signs of branch k, so
    lam_{3-k} = -lam_k. With Pi = diag((-1)^m), Pi x Pi = -x and
    Pi a (x) a Pi = a (x) a, so (Pi (x) Pi) L(lam_i, lam_j) (Pi (x) Pi) =
    L(-lam_i, -lam_j); and the adjoint of a block evolves as the swapped
    pair. Hence block (3-j, 3-i) is exactly Pi R^dag Pi, with R block (i, j)
    evolved from Pi cav Pi: its trace is conj(Tr R), and for i = j its
    populations are those of R. One propagator serves each orbit
    {(i, j), (3-j, 3-i)} (and every pair with the same amplitudes), and it
    steps each input a read needs: cav, and Pi cav Pi where it differs from
    cav (coherent starts; not the vacuum).

    Orbits with lam_i = +-lam_j are stepped in real arithmetic: their
    propagator E = W^H expm(L dt) W is real (_step_propagator), and their
    state is u = W^H vec(input). A diagonal orbit (K r = r^dag) holds one
    real column per input, as both are Hermitian. A parity orbit
    (K r = Pi r^dag Pi) is never read mirrored, so it holds cav only: u is
    real when Pi cav Pi = cav, and (Re u, Im u) otherwise. So every real
    orbit has as many columns as there are inputs (1 or 2), and the real
    orbits step together as one float64 stack, diagonal orbits first; the
    other orbits hold one complex vector per input. W leaves the diagonal
    entries (a, a) in place, so the guard populations and the traces are
    read straight off the real columns. The stacks advance in groups whose
    propagators fit _STEP_BYTES, one batched matmul per group and stop: a
    group stays in cache for the _CHUNK stops it takes before the next
    group runs, and each track's numbers do not depend on how the tracks
    are grouped.

    Macro steps: each orbit also keeps P = E^_MACRO, built by log2 _MACRO
    squarings, so a stride of _MACRO grid steps is one matmul. Only the
    diagonal orbits carry guard reads, and the guard entry g = (n_ph - 1,
    n_ph - 1) is one of those W leaves in place; so they also keep the
    _MACRO rows e_g^T E^j (j = 1.._MACRO), and rows @ u gives the guard
    populations of the _MACRO grid steps after a state u without stepping
    through them. That is one extra propagator per orbit and a
    (_MACRO, n_ph^2) block per diagonal orbit, not a stack of powers.
    """

    def __init__(self, params: DerivedGateParams, cav: np.ndarray, dt: float):
        n_ph = cav.shape[0]
        d = n_ph * n_ph
        lam = _branch_amplitudes(params)
        self.flip = (-1.0) ** np.add.outer(np.arange(n_ph), np.arange(n_ph))  # Pi X Pi
        inputs = [cav] if np.array_equal(self.flip * cav, cav) else [cav, self.flip * cav]
        self.cols = cols = len(inputs)
        reps: list = []  # one amplitude pair per orbit
        reads: list = []  # (orbit, mirrored) per block of _UPPER
        for i, j in _UPPER:
            key, mirror = (lam[i], lam[j]), (-lam[j], -lam[i])
            mirrored = key not in reps and mirror in reps
            if not mirrored and key not in reps:
                reps.append(key)
            reads.append((reps.index(mirror if mirrored else key), mirrored))
        forms = [_conjugation(n_ph, *rep) for rep in reps]
        # diagonal orbits (lam_i = lam_j) lead the real stack
        real = sorted((o for o, form in enumerate(forms) if form is not None),
                      key=lambda o: reps[o][0] != reps[o][1])
        cplx = [o for o, form in enumerate(forms) if form is None]
        n_diag = sum(reps[o][0] == reps[o][1] for o in real)

        # each propagator is written straight into its orbit's slot
        generator = _block_generator(params, n_ph)
        vecs = np.stack([x.reshape(d) for x in inputs])  # (cols, d)
        self.cplx_ops = np.empty((len(cplx), d, d), dtype=complex)
        for slot, o in enumerate(cplx):
            self.cplx_ops[slot] = _step_propagator(generator, *reps[o], dt)
        self.cplx_start = np.broadcast_to(vecs[:, :, None], (len(cplx), cols, d, 1)).copy()
        self.real_ops = np.empty((len(real), d, d))
        self.real_start = np.empty((len(real), d, cols))
        for slot, o in enumerate(real):
            self.real_ops[slot] = _step_propagator(generator, *reps[o], dt)
            u = _to_k_basis(vecs, *forms[o])
            if reps[o][0] == reps[o][1]:  # r -> r^dag: each input is K-fixed
                self.real_start[slot] = u.real.T
            else:  # r -> Pi r^dag Pi: cav alone, split into Re and Im
                self.real_start[slot] = np.stack([u[0].real, u[0].imag][:cols], axis=1)

        # P = E^_MACRO by squarings; the guard rows e_g^T E^j double alongside
        self.guard_rows = self.real_ops[:n_diag, -1:]  # j = 1
        self.cplx_macro, self.real_macro = self.cplx_ops, self.real_ops
        for _ in range(_MACRO.bit_length() - 1):
            self.guard_rows = np.concatenate(
                [self.guard_rows, self.guard_rows @ self.real_macro[:n_diag]], axis=1)
            self.cplx_macro = self.cplx_macro @ self.cplx_macro
            self.real_macro = self.real_macro @ self.real_macro

        # a row of run() is the complex tracks (as float pairs), then the
        # real columns; each read's entries sit at base + stride * entry,
        # and im_sign weighs its imaginary parts (0 where the track is real)
        real_at = 2 * len(cplx) * cols * d
        self.width = real_at + len(real) * d * cols
        base_re, base_im, stride, im_sign = [], [], [], []
        for o, mirrored in reads:
            inp = cols - 1 if mirrored else 0
            if o in cplx:
                at = 2 * (cplx.index(o) * cols + inp) * d
                split = True
                stride.append(2)
                im_sign.append(-1.0 if mirrored else 1.0)  # a mirrored trace is conjugated
            else:  # a parity orbit is never mirrored: its inp is 0
                at = real_at + real.index(o) * d * cols + inp
                split = cols == 2 and reps[o][0] != reps[o][1]  # (Re u, Im u)
                stride.append(cols)
                im_sign.append(1.0 if split else 0.0)
            base_re.append(at)
            base_im.append(at + 1 if split else at)
        entries = np.arange(d)
        self.re = np.array(base_re)[:, None] + np.array(stride)[:, None] * entries
        self.im = np.array(base_im)[:, None] + np.array(stride)[:, None] * entries
        self.im_sign = np.array(im_sign)
        self.mirrored = np.array([m for _, m in reads])
        # reads off a real orbit, with the signs s of their W
        self.in_basis = np.array([k for k, (o, _) in enumerate(reads) if o in real])
        self.pairs = forms[real[0]][:2]  # p and q are the same in both forms
        self.signs = np.array([forms[reads[k][0]][2] for k in self.in_basis])
        # diagonal blocks all sit on real orbits (lam_i = lam_j), whose
        # columns are real at the diagonal entries
        self.guard = self.re[[i == j for i, j in _UPPER], -1]

    def run(self, steps: int, stride: int = 1):
        """Yield (at, states) for grid steps 0, stride, 2 stride, ... and steps.

        at holds the grid steps of the rows of states, a (count, width)
        float64 array, in chunks. The tracks stop at those steps and at every
        multiple of _MACRO, up to _CHUNK stops per chunk; a gap of _MACRO
        steps between stops is one matmul by P per group of tracks, and a
        shorter gap takes E once per step. After each chunk, peak holds the
        largest guard population over every grid step up to the chunk's last
        stop: the guard rows read each gap off the stop that starts it.
        """
        stops = np.unique(np.r_[np.arange(0, steps, _MACRO), np.arange(0, steps, stride), steps])
        gaps = np.diff(stops, prepend=0).tolist()  # steps up to each stop
        ahead = np.diff(stops, append=steps)  # steps from each stop to the next
        keep = (stops % stride == 0) | (stops == steps)
        rows = min(_CHUNK, len(stops))
        d = self.real_ops.shape[-1]
        n_diag = len(self.guard_rows)
        # a complex buffer keeps the complex tracks aligned; the real columns
        # sit in its float view
        buf = np.empty((rows, (self.width + 1) // 2), dtype=complex)
        flat = buf.view(float)
        n_cplx, n_real = len(self.cplx_ops), len(self.real_ops)
        at = n_cplx * self.cols * d
        real_states = flat[:, 2 * at:self.width].reshape(rows, n_real, d, self.cols)
        stacks = [
            (self.cplx_ops[:, None], self.cplx_macro[:, None],
             buf[:, :at].reshape(rows, n_cplx, self.cols, d, 1)),
            (self.real_ops, self.real_macro, real_states),
        ]
        starts = [self.cplx_start, self.real_start]
        self.peak = 0.0
        for first in range(0, len(stops), _CHUNK):
            count = min(_CHUNK, len(stops) - first)
            for (ops, macro, states), start in zip(stacks, starts):
                group = max(1, _STEP_BYTES // (ops.itemsize * d * d))
                for g in range(0, len(ops), group):
                    tracks = slice(g, g + group)
                    op, jump, vec = ops[tracks], macro[tracks], start[tracks]
                    for k, gap in enumerate(gaps[first:first + count]):
                        if gap == _MACRO:
                            vec = np.matmul(jump, vec, out=states[k, tracks])
                        elif gap:
                            for _ in range(gap - 1):
                                vec = op @ vec
                            vec = np.matmul(op, vec, out=states[k, tracks])
                        else:
                            states[0, tracks] = vec
            # the guard populations of the grid steps after each stop, up to
            # the next; step 0 is read off its own row
            pops = self.guard_rows @ real_states[:count, :n_diag]
            within = np.arange(_MACRO)[:, None] < ahead[first:first + count, None, None, None]
            self.peak = max(self.peak, float(np.where(within, pops, 0.0).max()))
            if not first:
                self.peak = max(self.peak, float(flat[0, self.guard].max()))
            # the next chunk's first step reads this row before any group
            # overwrites it
            starts = [states[count - 1] for _, _, states in stacks]
            kept = keep[first:first + count]
            yield stops[first:first + count][kept], flat[:count, :self.width][kept]

    def traces(self, row: np.ndarray) -> np.ndarray:
        """The ten block traces of _UPPER in one row of run()."""
        diag = slice(None, None, self.flip.shape[0] + 1)  # entries (a, a)
        return (row[self.re[:, diag]].sum(axis=1)
                + 1j * self.im_sign * row[self.im[:, diag]].sum(axis=1))

    def blocks(self, states: np.ndarray) -> np.ndarray:
        """The (count, 10, n_ph, n_ph) blocks of _UPPER in a chunk of run()."""
        n_ph = self.flip.shape[0]
        out = states[:, self.re] + 1j * (np.abs(self.im_sign)[:, None] * states[:, self.im])
        out[:, self.in_basis] = _from_k_basis(out[:, self.in_basis], *self.pairs, self.signs)
        out = out.reshape(len(states), len(_UPPER), n_ph, n_ph)
        m = self.mirrored
        out[:, m] = self.flip * out[:, m].transpose(0, 1, 3, 2).conj()
        return out


def extract_channel(
    params: DerivedGateParams,
    gamma_1: float,
    gamma_2: float,
    initial_cavity: CavityPrep | None = None,
    *,
    n_ph: int | None = None,
    policy: StepPolicy = StepPolicy(),
    top_level_threshold: float = DEFAULT_TOP_LEVEL_THRESHOLD,
    seed: int | None = None,
) -> tuple[TwoQubitChannel, SimDiagnostics]:
    """Exact effective two-qubit channel of one gate, by qubit-block propagators.

    gamma_1, gamma_2 in 1/s. The channel is diagonal: rho_ij -> C_ij rho_ij
    with C_ij = exp(-c_ij t_g) Tr[expm(L(lam_i, lam_j) t_g) cav] (see
    _block_generator), where c_ij is gamma_k summed over the qubits k whose
    Z eigenvalues differ between i and j, and C_ji = conj(C_ij). The ten
    blocks on and above the diagonal are stepped with expm(L dt) on the
    policy's time grid (_BlockTracks): one propagator per orbit of the
    branch-flip symmetry (i, j) <-> (3-j, 3-i), which maps block (i, j)
    evolved from Pi cav Pi onto block (3-j, 3-i) exactly, so 4 propagators
    serve equal couplings and 6 unequal ones; the orbits with
    lam_i = +-lam_j (3 of 4, 4 of 6) take a real expm and step real columns
    in the fixed basis of an antiunitary symmetry, with the same numbers to
    rounding. The tracks advance _MACRO grid steps per matmul by
    P = E^_MACRO (E for the last steps % _MACRO), which matches stepping by
    E to rounding. The guard-level population is still a running maximum
    over all four diagonal blocks at every grid step, not only at the
    gate's end or at the macro steps: the steps in between are read off the
    rows e_g^T E^j. For basis-state inputs the composite state is a single
    diagonal block, so it is the worst case over any qubit input. The guard
    entries and the final traces are read straight off the stepped columns,
    which the fixed basis leaves alone on the diagonal, and only the
    maximum and the final traces are kept, so memory does not grow with the
    step count. SimDiagnostics.steps counts grid steps, not macro steps.
    For a thermal preparation this delegates to thermal_average_channel
    (which needs the seed).
    """
    prep = initial_cavity or CavityPrep.vacuum()
    if prep.kind == "thermal":
        return thermal_average_channel(
            params, prep.n_bar, prep.samples,
            seed if seed is not None else 0,
            gamma_1=gamma_1, gamma_2=gamma_2, n_ph=n_ph, policy=policy,
            top_level_threshold=top_level_threshold,
        )

    cav = _initial_cavity(params, prep, n_ph)
    n_ph = cav.shape[0]
    steps, dt = policy.resolve(params.t_g_ns)

    tracks = _BlockTracks(params, cav, dt)
    for _, states in tracks.run(steps, _MACRO):
        traces = tracks.traces(states[-1])
    diag = _run_health(tracks.peak, steps, dt, n_ph, top_level_threshold)

    upper_i, upper_j = np.array(_UPPER).T
    rates = _dephasing_rates(gamma_1, gamma_2)[upper_i, upper_j]
    coh = np.zeros((4, 4), dtype=complex)
    coh[upper_i, upper_j] = np.exp(-rates * params.t_g_ns) * traces
    coh[upper_j, upper_i] = np.conj(coh[upper_i, upper_j])
    coh[range(4), range(4)] = traces[upper_i == upper_j].real
    return TwoQubitChannel(superop=np.diag(coh.reshape(16))), diag


def _polaron_defect(
    r_diag: np.ndarray, lam: list[float], params: DerivedGateParams, t_ns: float
) -> float:
    """1 - vacuum weight of the cavity marginal after undoing the drive.

    r_diag holds the diagonal blocks r_ii. Branch i is displaced back by
    -lam_i * alpha_unit(t), with alpha_unit the closed-form drive-frame
    amplitude (for equal couplings: the familiar -(s1 + s2) * alpha_d(t)),
    so the marginal is sum_i D_i r_ii D_i^dag with n_ph x n_ph D_i.
    """
    alpha_unit = drive_frame_displacement(
        1.0, params.delta_rad_ns, params.kappa_per_ns, t_ns
    )
    a = FockSpace(r_diag.shape[-1]).annihilation()
    amps = -np.array(lam)[:, None, None] * alpha_unit
    disp = _expm(amps * a.conj().T - np.conj(amps) * a)
    cav = (disp @ r_diag @ disp.conj().transpose(0, 2, 1)).sum(axis=0)
    return 1.0 - float(cav[0, 0].real) / float(np.trace(cav).real)


def polaron_residual(
    params: DerivedGateParams,
    t_samples,
    *,
    n_ph: int | None = None,
    policy: StepPolicy = StepPolicy(),
    initial_qubit: np.ndarray | None = None,
) -> float:
    """Max ground-state defect in the qubit-conditioned displaced frame.

    Evolves (vacuum cavity, no intrinsic dephasing), and at each sampled
    time applies the inverse conditional displacement built from the
    closed-form drive-frame amplitude; the cavity should then sit in its
    ground state up to truncation error:

        residual(t) = 1 - <0| Tr_qubits[rho-displaced] |0> / Tr[rho].

    Sample times are snapped to the policy's step grid (consistently with
    the amplitude used for the displacement). Returns the maximum residual
    over the samples; it is the polaron_residual column of trajectory_rows.
    """
    t_samples = np.atleast_1d(np.asarray(t_samples, dtype=float))
    if np.any(t_samples < 0) or np.any(t_samples > params.t_g_ns * (1 + 1e-12)):
        raise DomainError("sample times must lie in [0, t_g]")
    if n_ph is None:
        n_ph = choose_n_ph(_loop_radius(params))
    rows = trajectory_rows(
        params, 0.0, 0.0, n_ph=n_ph, policy=policy, initial_qubit=initial_qubit
    )
    _, dt = policy.resolve(params.t_g_ns)
    return max([0.0] + [rows[int(round(t / dt))]["polaron_residual"] for t in t_samples])


def trajectory_rows(
    params: DerivedGateParams,
    gamma_1: float,
    gamma_2: float,
    initial_cavity: CavityPrep | None = None,
    *,
    n_ph: int | None = None,
    policy: StepPolicy = StepPolicy(),
    initial_qubit: np.ndarray | None = None,
    stride: int = 1,
) -> list[dict]:
    """Per-step state metrics for the optional trajectory dump.

    Evolves a single composite state (default |++> with the requested
    cavity preparation; gamma in 1/s) on the policy's step grid and
    records, every ``stride`` steps plus the final one, a row with keys
    t_ns, trace, purity, mean_photon, top_level_pop, polaron_residual.
    Every number comes from the qubit blocks r_ij(t) =
    q_ij exp(-c_ij t) expm(L_ij t) cav: trace, mean_photon, top_level_pop
    and the residual from the four diagonal blocks, and the purity as
    sum_ij ||r_ij||^2. The ten blocks on and above the diagonal come from
    _BlockTracks.blocks, so at most 6 propagators serve them (4 with equal
    couplings): block (3-j, 3-i) is read off block (i, j) evolved from the
    parity-flipped cavity, exactly, and the real-form tracks are mapped
    back from their fixed basis. The residual column is the same
    displaced-frame ground-state defect polaron_residual() maximizes; for
    non-vacuum preparations or gamma > 0 it is reported as-is rather than
    being expected small.
    """
    prep = initial_cavity or CavityPrep.vacuum()
    if prep.kind == "thermal":
        raise DomainError("trajectory dump needs a deterministic cavity preparation")
    if initial_qubit is None:
        plus = np.full(4, 0.5, dtype=complex)
        initial_qubit = np.outer(plus, plus.conj())
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")

    cav = _initial_cavity(params, prep, n_ph)
    q = np.asarray(initial_qubit, dtype=complex)
    lam = _branch_amplitudes(params)
    steps, dt = policy.resolve(params.t_g_ns)

    upper_i, upper_j = np.array(_UPPER).T
    on_diag = upper_i == upper_j
    weight = np.abs(q[upper_i, upper_j]) ** 2 * np.where(on_diag, 1.0, 2.0)
    rate = _dephasing_rates(gamma_1, gamma_2)[upper_i, upper_j]
    photons = np.arange(cav.shape[0])

    tracks = _BlockTracks(params, cav, dt)
    rows: list[dict] = []
    for at, states in tracks.run(steps, stride):
        for step, blocks in zip(at.tolist(), tracks.blocks(states)):
            t_now = step * dt
            r_diag = np.diagonal(q)[:, None, None] * blocks[on_diag]
            pops = np.einsum("inn->in", r_diag).real
            sq_norms = (np.abs(blocks) ** 2).sum(axis=(1, 2))
            rows.append({
                "t_ns": t_now,
                "trace": float(pops.sum()),
                "purity": float((weight * np.exp(-2.0 * rate * t_now) * sq_norms).sum()),
                "mean_photon": float((pops * photons).sum()),
                "top_level_pop": float(pops[:, -1].sum()),
                "polaron_residual": _polaron_defect(r_diag, lam, params, t_now),
            })
    return rows


def thermal_average_channel(
    params: DerivedGateParams,
    n_bar: float,
    sample_count: int,
    seed: int,
    *,
    gamma_1: float = 0.0,
    gamma_2: float = 0.0,
    n_ph: int | None = None,
    policy: StepPolicy = StepPolicy(),
    top_level_threshold: float = DEFAULT_TOP_LEVEL_THRESHOLD,
) -> tuple[TwoQubitChannel, SimDiagnostics]:
    """Monte-Carlo thermal-state channel with per-sample local-Z compensation.

    Draws coherent amplitudes from the complex Gaussian of variance n_bar
    (the P-representation of a thermal state), extracts the channel for
    each, strips the deterministic drive-induced single-qubit Z phases by
    fitting two trailing Z angles per sample, and averages the compensated
    superoperators. Deterministic for a given seed. n_bar = 0 short-circuits
    to the plain vacuum extraction (bit-identical with it).
    """
    if n_bar < 0:
        raise DomainError(f"n_bar must be non-negative, got {n_bar}")
    if sample_count < 1:
        raise DomainError(f"sample_count must be >= 1, got {sample_count}")
    if n_bar == 0.0:
        return extract_channel(
            params, gamma_1, gamma_2, CavityPrep.vacuum(), n_ph=n_ph, policy=policy,
            top_level_threshold=top_level_threshold,
        )

    rng = np.random.default_rng(seed)
    sigma = math.sqrt(n_bar / 2.0)
    draws = rng.normal(0.0, sigma, size=(sample_count, 2))
    target = ideal_gate_unitary(math.copysign(math.pi / 4, params.delta_rad_ns))

    acc = np.zeros((16, 16), dtype=complex)
    agg: SimDiagnostics | None = None
    for re_b, im_b in draws:
        beta = complex(re_b, im_b)
        chan, diag = extract_channel(
            params, gamma_1, gamma_2, CavityPrep.coherent(beta), n_ph=n_ph,
            policy=policy, top_level_threshold=top_level_threshold,
        )
        fit = fit_local_z(chan, target, validate=False)
        acc += fit.channel.superop
        agg = diag if agg is None else agg.merged_with(diag)
    return TwoQubitChannel(superop=acc / sample_count), agg
