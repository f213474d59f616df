"""Numeric master-equation oracle for the resonator-mediated gate.

Solves the full (two qubits) x (truncated Fock space) master equation

    drho/dt = -i [H, rho] + 2 kappa D[a] rho
              + (gamma_1/2) D[Z1] rho + (gamma_2/2) D[Z2] rho,
    H = Delta a^dag a + (g1/2)(a + a^dag) Z1 + (g2/2)(a + a^dag) Z2,

with D[c] rho = c rho c^dag - {c^dag c, rho}/2. The Hamiltonian is written
in the frame rotating at the drive frequency, so it is time-independent and
nothing oscillates faster than Delta; the default 20 ps step grid resolves
everything comfortably. With the (gamma/2) D[Z] convention a single-qubit
coherence decays at exactly gamma (the 1/T2 rate).

Unit boundaries: the entry points (extract_channel, trajectory_rows,
polaron_residual, thermal_average_channel) take SI-valued DerivedGateParams
and dephasing rates in 1/s; the block generators and steps inside work in
the internal system rad/ns, 1/ns, ns.

Basis ordering is qubit_1 (x) qubit_2 (x) Fock, i.e. the Fock index runs
fastest. H, the photon loss and the dephasing all commute with Z1 and Z2,
so the qubit block r_ij = <i|rho|j> (an n_ph x n_ph cavity operator)
evolves on its own under a fixed n_ph^2 x n_ph^2 generator L_ij. The
effective two-qubit channel is therefore the elementwise map
rho_ij -> C_ij rho_ij with C_ij = Tr[expm(L_ij t_g) cav], stored as C.
One block engine serves every path: extract_channel, the trajectory dump
(trajectory_rows) and the polaron check (polaron_residual) all step the
blocks with expm(L_ij dt) on the StepPolicy grid through one stepper
(_BlockTracks.run) and read their numbers off the blocks.

Frames: branch i drives the cavity towards its steady state
beta_i = -i lam_i / (2 (i Delta + kappa)) (the coherent-branch picture of
Gambetta et al., PRA 74, 042318 (2006)). The channel paths (extract_channel,
thermal_average_channel) step each block in its branches' displaced frame,
r'_ij = D(beta_i)^dag r_ij D(beta_j): one generator (_block_generator)
keeps every term of that transformation, so there the cavity holds only
|alpha - beta_i| e^{-kappa t} instead of the whole excursion, no level feeds
the one above it, and the Fock space is sized from max_i |alpha - beta_i|
(_reach). The trace is read back as Tr[r' D(beta_j)^dag D(beta_i)] with the
displacement's exact matrix elements on the kept levels (_displacement).
The trajectory dump and the polaron check report lab-frame quantities, so
they pass a zero shift to the same generator and stepper, and size the space
from the lab-frame reach. Every start is a coherent state (the vacuum is
alpha = 0), so each block starts as a dyad of coherent kets.

Branches come in sign-reversed pairs (lam_{3-k} = -lam_k, so
beta_{3-k} = -beta_k), and the cavity parity Pi = diag((-1)^m) maps
L(lam_i, lam_j) onto L(-lam_i, -lam_j) exactly, so block (3-j, 3-i) is read
off block (i, j) evolved from Pi cav Pi: one propagator per orbit of
(i, j) <-> (3-j, 3-i), 4 with equal couplings and 6 with unequal ones.
Orbits with lam_i = +-lam_j commute with an antiunitary (r -> r^dag or
r -> Pi r^dag Pi), so in that antiunitary's fixed basis both their
expm(L dt) and their stepping are real arithmetic: float64 propagators
acting on at most two float64 columns per orbit, read straight off for the
guard populations, through one weighted sum each for the traces, and mapped
back to blocks only where whole blocks are needed. Only 1 orbit of 4 (2 of 6
with unequal couplings) takes the complex expm and complex steps, and in the
displaced frame the two diagonal orbits see the same generator and share
one expm. Each orbit also keeps P = E^8 (three squarings of its step
propagator E), so extract_channel advances 8 grid steps per matmul and
reads the guard populations of the steps in between off 8 precomputed rows
of E^j; the trajectory dump steps at its own stride through the same
stepper. The truncated block generator preserves
the trace of a diagonal block exactly (Tr(A r A^dag) = Tr(A^dag A r), and a
commutator is traceless), so the block engine checks only the guard-level
population, taken in the frame it steps in. A thermal cavity is not one
state but a Monte-Carlo mixture of coherent ones: thermal_average_channel
steps all its samples as columns of one set of block tracks and averages
their channels, and the single-state paths reject it.
The tests check this engine against an independent dense-composite RK4
integrator kept in tests/rk4_reference.py.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .channel import TwoQubitChannel, drive_frame_displacement, gate_target
from .device import DerivedGateParams
from .errors import DomainError
from .fidelity import fit_local_z

DEFAULT_N_PH = 6  # levels 0..5: one guard level above the 4-photon working range
DEFAULT_TOP_LEVEL_THRESHOLD = 1e-4
_GUARD_TAIL = 1e-5  # choose_n_ph's bound on the guard-level population
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
        (ket,) = _coherent_kets(self.n_levels, [beta])
        return np.outer(ket, ket.conj())


def _coherent_kets(n_ph: int, amps) -> np.ndarray:
    """Rows |amp> over levels 0..n_ph-1, truncated and renormalized:
    amplitudes amp^m / sqrt(m!) by their running product."""
    amps = np.asarray(amps, dtype=complex)
    ratios = amps[:, None] / np.sqrt(np.arange(1, n_ph))
    kets = np.cumprod(np.concatenate([np.ones((len(amps), 1)), ratios], axis=1), axis=1)
    return kets / np.linalg.norm(kets, axis=1, keepdims=True)


def _displacement(n_ph: int, deltas) -> np.ndarray:
    """<m|D(delta)|n> for m, n < n_ph, exact: one (n_ph, n_ph) matrix per delta.

    D(delta) = exp(-|delta|^2/2) exp(delta a^dag) exp(-delta^* a), and
    <m|exp(x a^dag)|n> = x^k sqrt(m!/n!) / k! at k = m - n >= 0; the
    product sums over levels below min(m, n) only, so no level above the
    space enters. (expm of a truncated a^dag - a would not be exact.)
    """
    deltas = np.asarray(deltas, dtype=complex)[:, None]
    m = np.arange(n_ph)
    log_fact = np.cumsum(np.log(np.maximum(m, 1)))
    k = m[:, None] - m
    kk = np.maximum(k, 0)
    mag = np.where(k >= 0, np.exp(0.5 * (log_fact[:, None] - log_fact) - log_fact[kk]), 0.0)
    ones = np.ones((len(deltas), 1))
    up, down = (np.cumprod(np.concatenate([ones, x.repeat(n_ph - 1, axis=1)], axis=1), axis=1)
                for x in (deltas, -deltas.conj()))  # x^0 .. x^(n_ph-1)
    raising, lowering = up[:, kk] * mag, down[:, kk] * mag
    return np.exp(-0.5 * np.abs(deltas[:, :, None]) ** 2) * (raising @ lowering.swapaxes(-1, -2))


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

    def to_json_dict(self) -> dict:
        return {**asdict(self), "failure_reasons": list(self.failure_reasons)}


def _run_health(
    max_top: float, steps: int, dt: float, n_ph: int, top_level_threshold: float,
) -> SimDiagnostics:
    """Diagnostics from the worst guard-level population of a run."""
    reasons = []
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


def choose_n_ph(max_amplitude: float) -> int:
    """Smallest Fock dimension, at least DEFAULT_N_PH, with the guard level
    of a coherent state below _GUARD_TAIL.

    ``max_amplitude`` is the largest coherent amplitude the run must hold in
    the frame it steps in (_reach). The guard level of a coherent state
    |amp| is Poissonian, so walk the pmf until it drops that low.
    """
    lam = max_amplitude**2
    if lam == 0.0:
        return DEFAULT_N_PH
    k, log_p = 0, -lam
    while not (log_p < math.log(_GUARD_TAIL) and k > lam):
        k += 1
        log_p += math.log(lam) - math.log(k)
        if k > 1000:
            raise DomainError(f"amplitude {max_amplitude} needs an absurd Fock space")
    return max(DEFAULT_N_PH, k + 1)


def _reach(params: DerivedGateParams, alpha: complex = 0j, *, displaced: bool = False) -> float:
    """Largest cavity amplitude any branch holds over t >= 0, from alpha(0) = alpha.

    Branch i is driven at lam_i = g1 s1 + g2 s2, so its amplitude
    alpha_i(t) = beta_i + (alpha - beta_i) exp(-(i Delta + kappa) t) circles
    its steady state beta_i = -i lam_i / (2 (i Delta + kappa)) on a shrinking
    radius. In the lab frame |beta_i| + |alpha - beta_i| is the supremum of
    |alpha_i(t)| (reached at kappa = 0); in the branch's displaced frame
    (displaced=True, the frame extract_channel steps in) the state is
    centred on beta_i and only |alpha_i(t) - beta_i| <= |alpha - beta_i| is
    left. All beta_i share the phase u = -i conj(z)/|z|, z = kappa + i Delta,
    so with b_i = lam_i / (2|z|) the lab sum is |b_i| + |alpha conj(u) - b_i|;
    at alpha = 0 that is |lam_i| / |z| exactly, the loop radius of branch i,
    and displaced it is half of it.
    """
    h = math.hypot(params.delta_rad_ns, params.kappa_per_ns)
    w = alpha * complex(-params.delta_rad_ns, params.kappa_per_ns) / h  # alpha conj(u)
    b = [lam / (2.0 * h) for lam in _branch_amplitudes(params)]
    return max((0.0 if displaced else abs(b_i)) + abs(w - b_i) for b_i in b)


def _steady_shift(params: DerivedGateParams) -> complex:
    """beta_i / lam_i = -i / (2 (i Delta + kappa)), the same for every branch:
    the shift that centres each branch's displaced frame on its steady state."""
    return -0.5j / complex(params.kappa_per_ns, params.delta_rad_ns)


@lru_cache(maxsize=8)
def _vec_operators(n_ph: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n_ph-only parts of _block_generator on row-major vec(r'), read-only:
    n (x) I - I (x) n, 2 a (x) a - n (x) I - I (x) n, and the rows of the
    four linear terms a^dag r', a r', r' a^dag and r' a. Cached, as every
    extraction at one size rebuilds the same matrices."""
    fock = FockSpace(n_ph)
    a, num = fock.annihilation().real, fock.number_op().real
    eye = np.eye(n_ph)
    n_left, n_right = np.kron(num, eye), np.kron(eye, num)
    a_left, a_right = np.kron(a, eye), np.kron(eye, a)
    ops = (
        n_left - n_right,
        2.0 * np.kron(a, a) - n_left - n_right,
        np.array([a_left.T, a_left, a_right, a_right.T], dtype=complex).reshape(4, -1),
    )
    for op in ops:
        op.flags.writeable = False
    return ops


def _block_generator(params: DerivedGateParams, n_ph: int, shift: complex = 0j):
    """Generator maker for the displaced qubit blocks (internal units).

    Returns L(lam_i, lam_j), the n_ph^2 x n_ph^2 generator of the block
    r' = D(b_i)^dag r D(b_j), b = shift * lam, where r = <i|rho|j> and the
    row and column branches have amplitudes lam = g1 s1 + g2 s2 (branch
    (s1, s2)). D(b)^dag a D(b) = a + b, so with A = a + b

        L r' = -i(H_i r' - r' H_j)
               + kappa (2 A_i r' A_j^dag - A_i^dag A_i r' - r' A_j^dag A_j),
        H = Delta A^dag A + (lam/2)(A + A^dag),

    built here with every linear and scalar term kept, so no choice of
    shift changes the physics, only how many levels it needs. With
    row-major vec(A X B) = (A (x) B^T) vec(X), shift 0 gives the lab-frame
    generator (to rounding)

        L = -i(H_i (x) I - I (x) H_j^T) + 2 kappa a (x) a - kappa (n (x) I + I (x) n),
        H_i = Delta n + (lam_i/2)(a + a^dag).

    The linear terms are written through each branch's deviation
    e = b - beta from its steady state beta = -i lam / (2 (i Delta + kappa))
    (_steady_shift):

        a^dag r': -z e_i,             a r': 2 kappa (b_j - b_i)^* + z^* e_i^*,
        r' a^dag: 2 kappa (b_i - b_j) + z e_j,        r' a: -z^* e_j^*,

    z = kappa + i Delta. So at the steady shift the a^dag r' and r' a terms
    vanish exactly: what is left is the undriven damped oscillator, the
    lowering terms 2 kappa (b_j^* - b_i^*) a r' and 2 kappa (b_i - b_j) r' a^dag,
    and a scalar, so no level feeds the one above it, and every diagonal
    block sees the same generator. The (gamma/2) D[Z] dephasing only adds
    -c_ij, a multiple of the identity, so callers apply it as the factor
    exp(-c_ij t).
    """
    detuning, damping, linear = _vec_operators(n_ph)
    kappa, delta = params.kappa_per_ns, params.delta_rad_ns
    z = complex(kappa, delta)
    off = shift - _steady_shift(params)  # e / lam, exactly 0 at the steady shift
    base = -1j * delta * detuning + kappa * damping
    diag = np.arange(n_ph * n_ph)

    def generator(lam_i, lam_j) -> np.ndarray:
        """L(lam_i, lam_j); for arrays of amplitudes, the stack of them."""
        lam_i, lam_j = np.asarray(lam_i, dtype=float), np.asarray(lam_j, dtype=float)
        b_i, b_j, e_i, e_j = shift * lam_i, shift * lam_j, off * lam_i, off * lam_j
        coeffs = np.stack([
            -z * e_i,  # a^dag r'
            2.0 * kappa * (b_j - b_i).conj() + z.conjugate() * e_i.conj(),  # a r'
            2.0 * kappa * (b_i - b_j) + z * e_j,  # r' a^dag
            -z.conjugate() * e_j.conj(),  # r' a
        ], axis=-1)
        m = base + (coeffs @ linear).reshape(*lam_i.shape, *base.shape)
        # -i(c_i - c_j), c = Delta |b|^2 + lam Re b, and
        # kappa (2 b_i b_j^* - |b_i|^2 - |b_j|^2), written so that both
        # vanish exactly on a diagonal block (Im(b_i b_j^*) by real products:
        # a fused complex product leaves a rounding residue)
        energy = (delta * (np.abs(b_i) ** 2 - np.abs(b_j) ** 2)
                  + lam_i * b_i.real - lam_j * b_j.real)
        loss = -np.abs(b_i - b_j) ** 2 + 2j * (b_i.imag * b_j.real - b_i.real * b_j.imag)
        m[..., diag, diag] += (-1j * energy + kappa * loss)[..., None]
        return m

    return generator


def _branch_amplitudes(params: DerivedGateParams) -> list[float]:
    """lam = g1 s1 + g2 s2 for each qubit basis state (branch (s1, s2))."""
    return [params.g1_rad_ns * s1 + params.g2_rad_ns * s2 for s1, s2 in _BRANCHES]


def _dephasing_rates(gamma_1: float, gamma_2: float) -> np.ndarray:
    """c_ij in 1/ns (gamma in 1/s): gamma_k summed over the qubits k whose Z
    eigenvalues differ between branches i and j."""
    s = np.array(_BRANCHES)
    return 1e-9 * ((s[:, None, :] != s[None, :, :]) @ np.array([gamma_1, gamma_2]))


def _start_amplitude(prep: CavityPrep | None) -> complex:
    """Coherent amplitude of a vacuum (prep None, amplitude 0) or coherent
    preparation.

    A thermal preparation is a mixture the block engine cannot step as one
    state, so it raises DomainError.
    """
    prep = prep or CavityPrep.vacuum()
    if prep.kind == "thermal":
        raise DomainError(
            "needs a deterministic cavity preparation (vacuum or coherent), got "
            "thermal; thermal_average_channel averages its coherent samples"
        )
    return prep.alpha


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


def _step_propagator(m: np.ndarray, form) -> np.ndarray:
    """expm(m) of one step's generator m = L(lam_i, lam_j) dt, in the basis
    its block is stepped in: where an antiunitary K commutes with L (form,
    from _conjugation, is not None), W^H L W is real for the unitary W of
    K's fixed vectors, and this returns the real
    E = expm(real(W^H m W)) = W^H expm(m) W; elsewhere the complex expm(m).
    The real expm costs a fraction of the complex one; W is applied by
    index gathers, never built. m is overwritten."""
    return _expm(m) if form is None else _expm(_to_real(m, *form))


def _drop_underflow(ops: np.ndarray) -> None:
    """Zero the numbers below 1e-36 in a stack of step propagators, in place.

    In a displaced frame the raising entries of a propagator are rounding
    noise (~1e-17 per level), and products of them fall below the normal
    floating-point range, where BLAS runs many times slower (the macro-step
    squarings of the real stack took 4-6x longer at 12 levels). P = E^_MACRO
    and the guard rows e_g^T E^j multiply at most _MACRO = 8 kept entries,
    at least 1e-288, still normal; a dropped entry moves no number read by
    more than ~1e-36 per step.
    """
    parts = ops.view(float)  # a complex entry's real and imaginary parts apart
    parts[np.abs(parts) < 1e-36] = 0.0


# qubit index pairs (i, j) of the blocks on and above the diagonal, row-major;
# those below are their adjoints
_UPPER = tuple((int(i), int(j)) for i, j in zip(*np.triu_indices(4)))
# rows held at once by _BlockTracks.run: at most _CHUNK stops, and no more
# than fit _CHUNK_BYTES (one stop at the least), so a stack of many cavity
# states does not grow the buffer by its number of stops
_CHUNK = 64
_CHUNK_BYTES = 2 << 20
# grid steps per macro step P = E^_MACRO (a power of two, built by squarings);
# extract_channel runs its tracks at this stride
_MACRO = 8


class _BlockTracks:
    """The displaced blocks r'_ij = D(b_i)^dag r_ij D(b_j) of _UPPER on a time
    grid, r_ij evolved from each coherent start cav_s = |alpha_s><alpha_s| of
    a stack, with b = shift * lam (_block_generator; shift 0 is the lab
    frame).

    Dephasing is left out (see _block_generator). The states share every
    propagator: each is only more columns of the same matmuls. run() steps
    the tracks and yields their states as rows of float64 numbers; guard
    holds where the guard-level populations of the four diagonal blocks of
    each state sit in a row, peak is the largest of them over every state
    and every grid step run() has passed, traces() reads each state's ten
    lab-frame block traces off a row, and blocks() maps rows back to each
    state's ten (n_ph, n_ph) blocks r'_ij.

    Starts: D(b)^dag |alpha> = exp(i Im(b^* alpha)) |alpha - b>, so block
    (i, j) starts as the dyad psi_i psi_j^dag of the coherent kets
    psi_i = exp(i Im(b_i^* alpha)) |alpha - b_i>, each truncated to the space
    and renormalized; at shift 0 that is cav_s itself.

    Orbit rule: branch 3 - k flips both Z signs of branch k, so
    lam_{3-k} = -lam_k and b_{3-k} = -b_k. With Pi = diag((-1)^m),
    Pi (a + b) Pi = -(a - b), so (Pi (x) Pi) L(lam_i, lam_j) (Pi (x) Pi) =
    L(-lam_i, -lam_j), shift and all; and the adjoint of a block evolves as
    the swapped pair. Hence block (3-j, 3-i) is exactly Pi R^dag Pi, with R
    block (i, j) evolved from the start of Pi cav Pi = |-alpha><-alpha|
    (Pi psi_k(alpha) = psi_{3-k}(-alpha), truncated kets included): for
    i = j its populations are those of R. One propagator serves each orbit
    {(i, j), (3-j, 3-i)} (and every pair with the same amplitudes), and it
    steps each input a read needs: the S starts alpha_s, and then the
    -alpha_s unless every start is the vacuum, each displaced into the
    orbit's own frame.

    Orbits with lam_i = +-lam_j are stepped in real arithmetic: their
    propagator E = W^H expm(L dt) W is real (_step_propagator), and their
    state is u = W^H vec(start). A diagonal orbit (K r = r^dag) holds one
    real column per input, as its starts psi_i psi_i^dag are Hermitian. A
    parity orbit (K r = Pi r^dag Pi) is never read mirrored, so it holds the
    alpha_s starts only: K maps the start of alpha onto that of -alpha, so u
    is real when every alpha_s is 0, and otherwise the S columns Re u_s are
    followed by the S columns Im u_s. So every orbit has as many columns as
    there are inputs (S or 2S): the real orbits step together as one
    float64 (d, columns) stack, diagonal orbits first, and the other orbits
    as a complex one. W leaves the diagonal entries (a, a) in place, so the
    guard populations are read straight off the real columns. Each stack
    advances by one batched matmul per stop.

    Macro steps: each orbit also keeps P = E^_MACRO, built by log2 _MACRO
    squarings, so a stride of _MACRO grid steps is one matmul. Only the
    diagonal orbits carry guard reads, and the guard entry g = (n_ph - 1,
    n_ph - 1) is one of those W leaves in place; so they also keep the
    _MACRO rows e_g^T E^j (j = 1.._MACRO), and rows @ u gives the guard
    populations of the _MACRO grid steps after a state u without stepping
    through them. That is one extra propagator per orbit and a
    (_MACRO, n_ph^2) block per diagonal orbit, not a stack of powers.
    """

    def __init__(self, params: DerivedGateParams, alphas, n_ph: int, dt: float,
                 shift: complex = 0j):
        """alphas: the S coherent amplitudes the cavity starts in (0: vacuum)."""
        alphas = np.asarray(alphas, dtype=complex)
        samples, d = len(alphas), n_ph * n_ph
        lam = _branch_amplitudes(params)
        self.flip = (-1.0) ** np.add.outer(np.arange(n_ph), np.arange(n_ph))  # Pi X Pi
        # Pi |alpha> = |-alpha>: the parity-flipped starts, unless all are vacuum
        starts = np.concatenate([alphas, -alphas]) if alphas.any() else alphas
        self.cols = cols = len(starts)
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

        # psi per branch amplitude and input, then each orbit's starts
        levels = sorted(set(lam))
        b = shift * np.array(levels)[:, None]
        psi = (np.exp(1j * (b.conj() * starts).imag)[..., None]
               * _coherent_kets(n_ph, (starts - b).ravel()).reshape(len(levels), cols, n_ph))
        row_k, col_k = ([levels.index(rep[side]) for rep in reps] for side in (0, 1))
        vecs = (psi[row_k, :, :, None] * psi[col_k, :, None, :].conj()).reshape(len(reps), cols, d)

        # every orbit's L dt at once; each propagator is written straight
        # into its orbit's slot
        steps_dt = _block_generator(params, n_ph, shift)(*np.array(reps).T) * dt
        self.cplx_ops = np.empty((len(cplx), d, d), dtype=complex)
        for slot, o in enumerate(cplx):
            self.cplx_ops[slot] = _step_propagator(steps_dt[o], None)
        self.cplx_start = vecs[cplx].transpose(0, 2, 1).copy()
        self.real_ops = np.empty((len(real), d, d))
        self.real_start = np.empty((len(real), d, cols))
        # diagonal orbits with the same L dt (all of them at the steady
        # shift) share one expm; the real forms overwrite steps_dt below
        twin = [next((t for t in range(slot) if np.array_equal(steps_dt[real[t]], steps_dt[o])),
                     None) if slot < n_diag else None for slot, o in enumerate(real)]
        for slot, o in enumerate(real):
            self.real_ops[slot] = (self.real_ops[twin[slot]] if twin[slot] is not None
                                   else _step_propagator(steps_dt[o], forms[o]))
            u = _to_k_basis(vecs[o], *forms[o])
            if reps[o][0] == reps[o][1]:  # r -> r^dag: each input is K-fixed
                self.real_start[slot] = u.real.T
            else:  # r -> Pi r^dag Pi: the alpha_s alone, Re u_s then Im u_s
                self.real_start[slot] = np.concatenate(
                    [u[:samples].real, u[:samples].imag][:cols // samples]).T
        del steps_dt  # before the squarings allocate

        # P = E^_MACRO by squarings; the guard rows e_g^T E^j double alongside
        _drop_underflow(self.cplx_ops)
        _drop_underflow(self.real_ops)
        self.guard_rows = self.real_ops[:n_diag, -1:]  # j = 1
        self.cplx_macro, self.real_macro = self.cplx_ops, self.real_ops
        for _ in range(_MACRO.bit_length() - 1):
            self.guard_rows = np.concatenate(
                [self.guard_rows, self.guard_rows @ self.real_macro[:n_diag]], axis=1)
            self.cplx_macro = self.cplx_macro @ self.cplx_macro
            self.real_macro = self.real_macro @ self.real_macro

        # a row of run() is the complex (d, cols) tracks (as float pairs),
        # then the real ones; each read of state 0 has its entries at
        # base + stride * entry, state s sits s columns on, and has_im
        # marks the reads with an imaginary part (not a K-fixed real track)
        real_at = 2 * len(cplx) * d * cols
        self.width = real_at + len(real) * d * cols
        base_re, base_im, col, has_im = [], [], [], []
        for o, mirrored in reads:
            inp = cols - samples if mirrored else 0  # column of state 0's input
            if o in cplx:  # float pairs: a column is 2 floats
                at = 2 * (cplx.index(o) * d * cols + inp)
                base_im.append(at + 1)
                col.append(2)
                has_im.append(1.0)
            else:  # a parity orbit is never mirrored: its inp is 0
                at = real_at + real.index(o) * d * cols + inp
                split = cols > samples and reps[o][0] != reps[o][1]  # Re u_s, Im u_s
                base_im.append(at + samples if split else at)
                col.append(1)
                has_im.append(1.0 if split else 0.0)
            base_re.append(at)
        at_entry = cols * np.array(col)[:, None] * np.arange(d)
        state_at = np.arange(samples)[:, None, None] * np.array(col)[:, None]
        self.re = state_at + (np.array(base_re)[:, None] + at_entry)  # (S, 10, d)
        self.im = state_at + (np.array(base_im)[:, None] + at_entry)
        self.has_im = np.array(has_im)
        self.mirrored = np.array([m for _, m in reads])
        # reads off a real orbit, with the signs s of their W
        self.in_basis = np.array([k for k, (o, _) in enumerate(reads) if o in real])
        self.pairs = forms[real[0]][:2]  # p and q are the same in both forms
        self.signs = np.array([forms[reads[k][0]][2] for k in self.in_basis])
        # diagonal blocks all sit on real orbits (lam_i = lam_j), whose
        # columns are real at the diagonal entries
        self.guard = self.re[:, [i == j for i, j in _UPPER], -1]
        # Tr r_ij = Tr[r'_ij X_ij], X_ij = D(b_j)^dag D(b_i)
        # = exp(i Im(b_i b_j^*)) D(b_i - b_j) on the kept levels, read as one
        # weighted sum over the column v of each read: sum_e v_e vec(X^T)_e,
        # or for a mirrored read (block Pi V^dag Pi) the conjugate of
        # sum_e v_e conj(vec(Pi X Pi))_e; a real track holds u = W^H v, so
        # its weights are W^T w
        b = shift * np.array(lam)
        upper_i, upper_j = np.array(_UPPER).T
        deltas, which = np.unique(b[upper_i] - b[upper_j], return_inverse=True)
        x = (np.exp(1j * (b[upper_i] * b[upper_j].conj()).imag)[:, None, None]
             * _displacement(n_ph, deltas)[which])
        w = np.where(self.mirrored[:, None, None], (self.flip * x).conj(),
                     x.swapaxes(-1, -2)).reshape(len(_UPPER), d)
        w[self.in_basis] = _to_k_basis(w[self.in_basis].conj(), *self.pairs, self.signs).conj()
        self.weights = w

    def run(self, steps: int, stride: int = 1):
        """Yield (at, states) for grid steps 0, stride, 2 stride, ... and steps.

        at holds the grid steps of the rows of states, a (count, width)
        float64 array, in chunks. The tracks stop at those steps and at every
        multiple of _MACRO, up to _CHUNK stops per chunk and no more than
        fit _CHUNK_BYTES; a gap of _MACRO steps between stops is one matmul
        by P per stack of tracks, and a shorter gap takes E once per step.
        After each chunk, peak holds the largest guard population over every
        grid step up to the chunk's last stop: the guard rows read each gap
        off the stop that starts it.
        """
        stops = np.unique(np.r_[np.arange(0, steps, _MACRO), np.arange(0, steps, stride), steps])
        gaps = np.diff(stops, prepend=0).tolist()  # steps up to each stop
        ahead = np.diff(stops, append=steps)  # steps from each stop to the next
        keep = (stops % stride == 0) | (stops == steps)
        rows = max(1, min(_CHUNK, len(stops), _CHUNK_BYTES // (8 * self.width)))
        d = self.real_ops.shape[-1]
        n_diag = len(self.guard_rows)
        # a complex buffer keeps the complex tracks aligned; the real columns
        # sit in its float view
        buf = np.empty((rows, (self.width + 1) // 2), dtype=complex)
        flat = buf.view(float)
        n_cplx, n_real = len(self.cplx_ops), len(self.real_ops)
        at = n_cplx * d * self.cols
        real_states = flat[:, 2 * at:self.width].reshape(rows, n_real, d, self.cols)
        stacks = [
            (self.cplx_ops, self.cplx_macro, buf[:, :at].reshape(rows, n_cplx, d, self.cols)),
            (self.real_ops, self.real_macro, real_states),
        ]
        starts = [self.cplx_start, self.real_start]
        if self.cols == 2:
            # one displaced state: OpenBLAS's zgemm with two columns is slower
            # than a zgemv per column (d = 196: ~45 against ~25 us), so the
            # complex tracks step their columns as strided vectors
            states = stacks[0][2].swapaxes(-1, -2)[..., None]
            stacks[0] = (self.cplx_ops[:, None], self.cplx_macro[:, None], states)
            starts[0] = self.cplx_start.swapaxes(-1, -2)[..., None]
        self.peak = 0.0
        for first in range(0, len(stops), rows):
            count = min(rows, len(stops) - first)
            for (ops, macro, states), vec in zip(stacks, starts):
                for k, gap in enumerate(gaps[first:first + count]):
                    if gap == _MACRO:
                        vec = np.matmul(macro, vec, out=states[k])
                    elif gap:
                        for _ in range(gap - 1):
                            vec = ops @ vec
                        vec = np.matmul(ops, vec, out=states[k])
                    else:
                        states[0] = vec
            # the guard populations of the grid steps after each stop, up to
            # the next; step 0 is read off its own row
            pops = self.guard_rows @ real_states[:count, :n_diag]
            within = np.arange(_MACRO)[:, None] < ahead[first:first + count, None, None, None]
            self.peak = max(self.peak, float(np.where(within, pops, 0.0).max()))
            if not first:
                self.peak = max(self.peak, float(flat[0, self.guard].max()))
            # the next chunk steps on from this chunk's last row, which it
            # reads before it overwrites it
            starts = [states[count - 1] for _, _, states in stacks]
            kept = keep[first:first + count]
            chunk = flat[:count, :self.width]
            yield stops[first:first + count][kept], chunk if kept.all() else chunk[kept]

    def traces(self, row: np.ndarray) -> np.ndarray:
        """The (S, 10) lab-frame block traces Tr r_ij of _UPPER of each state
        in one row of run()."""
        traces = ((row[self.re] + 1j * self.has_im[:, None] * row[self.im]) * self.weights).sum(-1)
        return np.where(self.mirrored, traces.conj(), traces)

    def blocks(self, states: np.ndarray) -> np.ndarray:
        """The (count, S, 10, n_ph, n_ph) blocks r'_ij of _UPPER in a chunk of run()."""
        n_ph = self.flip.shape[0]
        out = states[:, self.re] + 1j * (self.has_im[:, None] * states[:, self.im])
        out[:, :, self.in_basis] = _from_k_basis(
            out[:, :, self.in_basis], *self.pairs, self.signs)
        out = out.reshape(*out.shape[:3], n_ph, n_ph)
        m = self.mirrored
        out[:, :, m] = self.flip * out[:, :, m].swapaxes(-1, -2).conj()
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
) -> tuple[TwoQubitChannel, SimDiagnostics]:
    """Exact effective two-qubit channel of one gate, by qubit-block propagators.

    gamma_1, gamma_2 in 1/s. The cavity starts in vacuum (the default) or
    in a coherent state; a thermal preparation raises DomainError, since
    its channel is the seeded Monte-Carlo average of thermal_average_channel.
    The channel is diagonal: rho_ij -> C_ij rho_ij with
    C_ij = exp(-c_ij t_g) Tr[expm(L(lam_i, lam_j) t_g) cav] (see
    _block_generator), where c_ij is gamma_k summed over the qubits k whose
    Z eigenvalues differ between i and j, and C_ji = conj(C_ij).

    Each block is stepped in its branches' displaced frame,
    r'_ij = D(beta_i)^dag r_ij D(beta_j) with beta_i the steady state of
    branch i (_steady_shift): there the cavity only holds the decaying
    |alpha - beta_i| e^{-kappa t}, not the whole excursion
    |beta_i| + |alpha - beta_i|, and no level feeds the one above it. With
    n_ph None the space is sized from max_i |alpha - beta_i| (_reach,
    displaced): 6 levels from vacuum at a default point, where the lab frame
    needs 8. C_ij is read back as Tr[r'_ij D(beta_j)^dag D(beta_i)], with the
    displacement's exact matrix elements on the kept levels.

    The ten blocks on and above the diagonal are stepped with expm(L dt) on
    the policy's time grid (_BlockTracks): one propagator per orbit of the
    branch-flip symmetry (i, j) <-> (3-j, 3-i), which maps block (i, j)
    evolved from Pi cav Pi onto block (3-j, 3-i) exactly, so 4 propagators
    serve equal couplings and 6 unequal ones; the orbits with
    lam_i = +-lam_j (3 of 4, 4 of 6) take a real expm and step real columns
    in the fixed basis of an antiunitary symmetry, with the same numbers to
    rounding, and the two diagonal orbits, whose displaced generators are
    the same, share one expm (3 and 5 expm calls in all). The tracks
    advance _MACRO grid steps per matmul by P = E^_MACRO (E for the last
    steps % _MACRO), which matches stepping by E to rounding. The
    guard-level population, in the displaced frame, is a running maximum
    over all four diagonal blocks at every grid step, not only at the gate's
    end or at the macro steps: the steps in between are read off the rows
    e_g^T E^j. For basis-state inputs the composite state
    is a single diagonal block, so it is the worst case over any qubit
    input. The guard entries are read straight off the stepped columns,
    which the fixed basis leaves alone on the diagonal, and only the
    maximum and the final blocks are kept, so memory does not grow with the
    step count. SimDiagnostics.steps counts grid steps, not macro steps.
    """
    (coh,), diag = _coherences(params, gamma_1, gamma_2, [_start_amplitude(initial_cavity)],
                               n_ph, policy, top_level_threshold)
    return TwoQubitChannel(coh), diag


def _coherences(
    params: DerivedGateParams, gamma_1: float, gamma_2: float, alphas,
    n_ph: int | None, policy: StepPolicy, top_level_threshold: float,
) -> tuple[np.ndarray, SimDiagnostics]:
    """The (S, 4, 4) coherence matrices of the gate from each coherent start
    of alphas, in the displaced frame, and one SimDiagnostics whose guard
    population is the largest over all of them (see extract_channel). With
    n_ph None every start shares the size the largest of them needs."""
    if n_ph is None:
        n_ph = choose_n_ph(max(_reach(params, alpha, displaced=True) for alpha in alphas))
    steps, dt = policy.resolve(params.t_g_ns)
    tracks = _BlockTracks(params, alphas, n_ph, dt, _steady_shift(params))
    for _, states in tracks.run(steps, _MACRO):
        pass  # the last chunk stays in run()'s buffer
    traces = tracks.traces(states[-1])
    diag = _run_health(tracks.peak, steps, dt, n_ph, top_level_threshold)

    upper_i, upper_j = np.array(_UPPER).T
    rates = _dephasing_rates(gamma_1, gamma_2)[upper_i, upper_j]
    coh = np.zeros((len(traces), 4, 4), dtype=complex)
    coh[:, upper_i, upper_j] = np.exp(-rates * params.t_g_ns) * traces
    coh[:, upper_j, upper_i] = np.conj(coh[:, upper_i, upper_j])
    coh[:, range(4), range(4)] = traces[:, upper_i == upper_j].real
    return coh, diag


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
) -> float:
    """Max ground-state defect in the qubit-conditioned displaced frame.

    Evolves |++> (vacuum cavity, no intrinsic dephasing), and at each sampled
    time applies the inverse conditional displacement built from the
    closed-form drive-frame amplitude; the cavity should then sit in its
    ground state up to truncation error:

        residual(t) = 1 - <0| Tr_qubits[rho-displaced] |0> / Tr[rho].

    Sample times are snapped to the policy's step grid (consistently with
    the amplitude used for the displacement). Returns the maximum residual
    over the samples: the largest of trajectory_rows' polaron_residual
    column over those steps, at the same n_ph (with n_ph None both take the
    lab-frame size choose_n_ph(_reach)).
    """
    t_samples = np.atleast_1d(np.asarray(t_samples, dtype=float))
    if np.any(t_samples < 0) or np.any(t_samples > params.t_g_ns * (1 + 1e-12)):
        raise DomainError("sample times must lie in [0, t_g]")
    rows = trajectory_rows(params, 0.0, 0.0, n_ph=n_ph, policy=policy)
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
    back from their fixed basis. The blocks are stepped in the lab frame
    (zero shift), and with n_ph None the space is sized from the lab-frame
    reach, choose_n_ph(_reach). The residual column is the same
    displaced-frame ground-state defect polaron_residual() maximizes; for
    non-vacuum preparations or gamma > 0 it is reported as-is rather than
    being expected small.
    """
    if initial_qubit is None:
        plus = np.full(4, 0.5, dtype=complex)
        initial_qubit = np.outer(plus, plus.conj())
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")

    alpha = _start_amplitude(initial_cavity)
    if n_ph is None:
        n_ph = choose_n_ph(_reach(params, alpha))
    q = np.asarray(initial_qubit, dtype=complex)
    lam = _branch_amplitudes(params)
    steps, dt = policy.resolve(params.t_g_ns)

    upper_i, upper_j = np.array(_UPPER).T
    on_diag = upper_i == upper_j
    weight = np.abs(q[upper_i, upper_j]) ** 2 * np.where(on_diag, 1.0, 2.0)
    rate = _dephasing_rates(gamma_1, gamma_2)[upper_i, upper_j]
    photons = np.arange(n_ph)

    tracks = _BlockTracks(params, [alpha], n_ph, dt)
    rows: list[dict] = []
    for at, states in tracks.run(steps, stride):
        for step, blocks in zip(at.tolist(), tracks.blocks(states)[:, 0]):
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
    coherence matrices. Deterministic for a given seed. n_bar = 0 short-circuits
    to the plain vacuum extraction (bit-identical with it).

    Every sample is stepped in the branches' displaced frame (see
    extract_channel). All samples share one Fock space, n_ph or else the
    size the largest displaced reach among them needs,
    max_i |alpha_s - beta_i| (_reach), and one set of block propagators:
    each sample is only more columns of the same tracks (_BlockTracks), so
    a point takes one expm per orbit whatever the sample count. The
    diagnostics report that size and the worst displaced-frame guard
    population of any sample.
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
    alphas = [complex(re_b, im_b) for re_b, im_b in rng.normal(0.0, sigma, (sample_count, 2))]
    cohs, diag = _coherences(params, gamma_1, gamma_2, alphas, n_ph, policy,
                             top_level_threshold)

    target = gate_target(params)
    acc = np.zeros((4, 4), dtype=complex)
    for coh in cohs:
        acc += fit_local_z(TwoQubitChannel(coh), target, validate=False).channel.coherence
    return TwoQubitChannel(acc / sample_count), diag
