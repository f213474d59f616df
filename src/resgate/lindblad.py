"""Numeric master-equation oracle for the resonator-mediated gate.

Solves the full (two qubits) x (truncated Fock space) master equation

    drho/dt = -i [H, rho] + 2 kappa D[a] rho
              + (gamma_1/2) D[Z1] rho + (gamma_2/2) D[Z2] rho,
    H = Delta a^dag a + (g1/2)(a + a^dag) Z1 + (g2/2)(a + a^dag) Z2,

with D[c] rho = c rho c^dag - {c^dag c, rho}/2. The Hamiltonian is written
in the frame rotating at the drive frequency, so it is time-independent.
With the (gamma/2) D[Z] convention a single-qubit coherence decays at
exactly gamma (the 1/T2 rate).

Unit boundaries: the entry points (extract_channel, trajectory_rows,
polaron_residual, thermal_average_channel) take SI-valued DerivedGateParams
and dephasing rates in 1/s; the generators and propagators inside work in
the internal system rad/ns, 1/ns, ns.

Basis ordering is qubit_1 (x) qubit_2 (x) Fock, i.e. the Fock index runs
fastest. H, the photon loss and the dephasing all commute with Z1 and Z2,
so the qubit block r_ij = <i|rho|j> (an n_ph x n_ph cavity operator)
evolves on its own under a fixed generator L_ij. The effective two-qubit
channel is therefore the elementwise map rho_ij -> C_ij rho_ij with
C_ij = Tr[exp(L_ij t_g) cav], stored as C. Every start is a coherent state
(the vacuum is alpha = 0), so each block starts as a dyad of coherent kets.

Channel paths (extract_channel, thermal_average_channel): branch i drives
the cavity towards its steady state beta_i = -i lam_i / (2 (i Delta + kappa))
(the coherent-branch picture of Gambetta et al., PRA 74, 042318 (2006)).
In the branches' displaced frame r'_ij = D(beta_i)^dag r_ij D(beta_j) the
generator is the undriven damped oscillator L0 plus two lowering terms and
a scalar (_frame_terms), and L0 shifts each lowering term by a constant
factor, so exp(L t) factorizes exactly (Wei & Norman, J. Math. Phys. 4,
575 (1963)) into exp(x a) on the start kets and the amplitude-damping
channel. Only the trace Tr[r' D(beta_j)^dag D(beta_i)] of each block enters
C, and the adjoint of amplitude damping maps a normally ordered
displacement onto a damped one, so each C_ij is one inner product of two
start kets under exponentials of a, exact on the kept levels (_readout):
over the whole gate in one step, with no time grid, no expm, no scipy and
no block built. There the cavity holds only
|alpha - beta_i| e^{-kappa t}, no level feeds the one above it, and the
guard-level population is largest at the start; the Fock space is sized
from max_i |alpha - beta_i| (_reach). A thermal cavity is not one state
but a Monte-Carlo mixture of coherent ones: thermal_average_channel carries
all its samples through the same closed form, compensates them in one
batched local-Z fit and averages their channels, and the single-state paths
reject it.

Lab-frame paths (trajectory_rows, polaron_residual) report per-step
quantities, so they step the ten blocks on and above the diagonal with
their own expm(L_ij dt) on the StepPolicy grid (_lab_blocks) and size the
space from the lab-frame reach. scipy (for expm) is imported on these
paths' first use only. The truncated generator preserves the trace of a
diagonal block exactly (Tr(A r A^dag) = Tr(A^dag A r), and a commutator is
traceless), so the channel paths check only the guard-level population,
in their frame.
The tests check both engines against an independent dense-composite RK4
integrator kept in tests/rk4_reference.py.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .channel import TwoQubitChannel, drive_frame_displacement, gate_target
from .device import DEFAULT_TOP_LEVEL_THRESHOLD, CavityPrep, DerivedGateParams, StepPolicy
from .errors import DomainError
from .fidelity import _fit_stack, _target_weights

DEFAULT_N_PH = 6  # levels 0..5: one guard level above the 4-photon working range
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


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: the per-size tables are cached and shared,
    so no caller may write into them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=32)  # the few Fock sizes a process runs at
def _lowering_tables(n_ph: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables of _lowering_exp at one size: kk = max(n - m, 0) and
    mag = sqrt(n!/m!) / kk! where n >= m, else 0, for m, n < n_ph."""
    m = np.arange(n_ph)
    log_fact = np.cumsum(np.log(np.maximum(m, 1)))
    k = m - m[:, None]
    kk = np.maximum(k, 0)
    mag = np.where(k >= 0, np.exp(0.5 * (log_fact - log_fact[:, None]) - log_fact[kk]), 0.0)
    return _read_only(kk, mag)


def _lowering_exp(n_ph: int, xs) -> np.ndarray:
    """<m|exp(x a)|n> for m, n < n_ph: one (n_ph, n_ph) matrix per x, over
    the trailing axes of xs's shape. The element is x^k sqrt(n!/m!) / k! at
    k = n - m >= 0; a only lowers, so no level above the space enters and the
    kept elements are exact."""
    xs = np.asarray(xs, dtype=complex)[..., None]
    kk, mag = _lowering_tables(n_ph)
    powers = np.cumprod(np.concatenate([np.ones_like(xs), xs.repeat(n_ph - 1, axis=-1)],
                                       axis=-1), axis=-1)  # x^0 .. x^(n_ph-1)
    return powers[..., kk] * mag


@dataclass(frozen=True)
class SimDiagnostics:
    """Run health: guard-level population, grid, Fock size, and failure flags.

    A channel extraction is one exact propagation over the gate, so it
    reports steps = 1 and dt_ns = t_g."""

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


def choose_n_ph(max_amplitude: float) -> int:
    """Smallest Fock dimension, at least DEFAULT_N_PH, with the guard level
    of a coherent state below _GUARD_TAIL.

    ``max_amplitude`` is the largest coherent amplitude the run must hold in
    the frame it runs in (_reach). The guard level of a coherent state
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
    (displaced=True, the frame extract_channel works in) the state is
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


def _block_generator(params: DerivedGateParams, n_ph: int):
    """Generator maker for the lab-frame qubit blocks (internal units).

    Returns L(lam_i, lam_j), the n_ph^2 x n_ph^2 generator of the block
    r = <i|rho|j>, whose row and column branches have amplitudes
    lam = g1 s1 + g2 s2 (branch (s1, s2)):

        L r = -i(H_i r - r H_j) + kappa (2 a r a^dag - n r - r n),
        H = Delta n + (lam/2)(a + a^dag),

    on row-major vec(r), where vec(A X B) = (A (x) B^T) vec(X). The
    (gamma/2) D[Z] dephasing only adds -c_ij, a multiple of the identity,
    so callers apply it as the factor exp(-c_ij t).
    """
    fock = FockSpace(n_ph)
    a, num = fock.annihilation().real, fock.number_op().real
    eye = np.eye(n_ph)
    n_left, n_right = np.kron(num, eye), np.kron(eye, num)
    base = (-1j * params.delta_rad_ns * (n_left - n_right)
            + params.kappa_per_ns * (2.0 * np.kron(a, a) - n_left - n_right))
    x = a + a.T
    drive_left, drive_right = -0.5j * np.kron(x, eye), 0.5j * np.kron(eye, x)

    def generator(lam_i, lam_j) -> np.ndarray:
        """L(lam_i, lam_j); for arrays of amplitudes, the stack of them."""
        lam_i, lam_j = (np.asarray(lam, dtype=float)[..., None, None] for lam in (lam_i, lam_j))
        return base + lam_i * drive_left + lam_j * drive_right

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

    A thermal preparation is a mixture the block engines cannot carry as one
    state, so it raises DomainError.
    """
    prep = prep or CavityPrep.vacuum()
    if prep.kind == "thermal":
        raise DomainError(
            "needs a deterministic cavity preparation (vacuum or coherent), got "
            "thermal; thermal_average_channel averages its coherent samples"
        )
    return prep.alpha


# qubit index pairs (i, j) of the blocks on and above the diagonal, row-major;
# those below are their adjoints; _UPPER_I and _UPPER_J index them
_UPPER = tuple((int(i), int(j)) for i, j in zip(*np.triu_indices(4)))
_UPPER_I, _UPPER_J = _read_only(*np.array(_UPPER).T)


def _frame_terms(params: DerivedGateParams):
    """The displaced-frame generator of each block of _UPPER, in the pieces
    its exponential factorizes into (internal units).

    In the frame r' = D(beta_i)^dag r D(beta_j) of the branch steady states
    beta = -i lam / (2 z), z = kappa + i Delta (_steady_shift), a becomes
    a + beta on each side, and the generator of _block_generator becomes

        L r' = L0 r' + c_a a r' + c_b r' a^dag + s r',
        L0 r' = -i Delta [n, r'] + kappa (2 a r' a^dag - n r' - r' n),
        c_a = 2 kappa (beta_j - beta_i)^*,  c_b = 2 kappa (beta_i - beta_j),

    plus the scalar s = -i(e_i - e_j) + kappa (2 beta_i beta_j^* - |beta_i|^2
    - |beta_j|^2), e = Delta |beta|^2 + lam Re beta. At the steady state the
    drive and the a^dag r', r' a terms cancel exactly, so no level feeds the
    one above it, and a diagonal block sees L0 alone: c_a, c_b and s are
    exactly 0 there (Im(beta_i beta_j^*) is taken by real products, as a
    fused complex product leaves a rounding residue). Returns beta over the
    branches, and c_a and s over _UPPER; c_b = -c_a^*.
    """
    kappa, delta = params.kappa_per_ns, params.delta_rad_ns
    lam = np.array(_branch_amplitudes(params))
    beta = _steady_shift(params) * lam
    b_i, b_j = beta[_UPPER_I], beta[_UPPER_J]
    energy = (delta * (np.abs(b_i) ** 2 - np.abs(b_j) ** 2)
              + lam[_UPPER_I] * b_i.real - lam[_UPPER_J] * b_j.real)
    loss = -np.abs(b_i - b_j) ** 2 + 2j * (b_i.imag * b_j.real - b_i.real * b_j.imag)
    return beta, 2.0 * kappa * (b_j - b_i).conj(), -1j * energy + kappa * loss


def _branch_kets(beta: np.ndarray, alphas, n_ph: int) -> np.ndarray:
    """psi_k = D(beta_k)^dag |alpha> = exp(i Im(beta_k^* alpha)) |alpha - beta_k>
    for each branch steady state beta_k of _frame_terms and each coherent
    start alpha of alphas, truncated and renormalized: a (4, S, n_ph) array.
    Block (i, j) starts as psi_i psi_j^dag."""
    alphas = np.asarray(alphas, dtype=complex)
    kets = _coherent_kets(n_ph, (alphas - beta[:, None]).ravel()).reshape(4, len(alphas), n_ph)
    return np.exp(1j * (beta.conj()[:, None] * alphas).imag)[..., None] * kets


def _readout(params: DerivedGateParams, frame, psi: np.ndarray, t: float) -> np.ndarray:
    """Tr r_ij(t) of every block of _UPPER at time t, in closed form, from the
    branch kets psi of _branch_kets and the terms frame of _frame_terms: an
    (S, 10) array, dephasing left out.

    With L = L0 + c_a A_L + c_b A_R + s (_frame_terms), A_L r' = a r' and
    A_R r' = r' a^dag, the kept levels satisfy [L0, A_L] = z A_L,
    [L0, A_R] = z^* A_R and [A_L, A_R] = 0 exactly ([n, a] = -a holds there),
    so

        exp(t L) = exp(s t) exp(t L0) exp(x A_L + y A_R),
        x = c_a (1 - exp(-z t)) / z,  y = c_b (1 - exp(-z^* t)) / z^* = -x^*,

    and r'_ij(t) = exp(s t) E(phi_i phi_j^dag) with E = exp(t L0),
    phi_i = exp(x a) psi_i and phi_j = exp(-x a) psi_j. E is amplitude
    damping at eta = exp(-2 kappa t) followed by exp(-i Delta n t); it only
    lowers, and its adjoint maps exp(mu a^dag) exp(nu a) to
    exp(mu e^{-z^* t} a^dag) exp(nu e^{-z t} a), as L0^dag(a) = -z a. The
    trace is read in the lab frame as Tr[r'_ij X_ij] with
    X_ij = D(b_j)^dag D(b_i) = exp(i Im(b_i b_j^*)) D(delta), delta = b_i - b_j;
    all b share the phase of -i / (2 z), so the phase factor is exactly 1.
    With D(delta) = exp(-|delta|^2/2) exp(delta a^dag) exp(-delta^* a) and
    Tr[E(phi_i phi_j^dag) X] = phi_j^dag E^dag(X) phi_i,

        Tr r_ij(t) = exp(s t - |delta|^2/2) <exp(p a) psi_j, exp(-p a) psi_i>,
        p = delta^* e^{-z t} - x.

    Each step is exact on the kept levels: the starts live there, E and the
    lowering exponentials keep them there, and a product of raising and
    lowering exponentials has the kept elements of its truncated factors
    (_lowering_exp). No block, displacement or Kraus operator is built.
    """
    n_ph = psi.shape[-1]
    z = complex(params.kappa_per_ns, params.delta_rad_ns)
    beta, c_a, s = frame
    decay = cmath.exp(-z * t)
    delta = beta[_UPPER_I] - beta[_UPPER_J]
    p = delta.conj() * decay - c_a * ((1.0 - decay) / z)
    left = np.einsum("umn,usn->usm", _lowering_exp(n_ph, -p), psi[_UPPER_I])
    right = np.einsum("umn,usn->usm", _lowering_exp(n_ph, p), psi[_UPPER_J])
    return (np.exp(s * t - 0.5 * np.abs(delta) ** 2)[:, None]
            * np.einsum("usm,usm->us", right.conj(), left)).T


def _expm(m: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported on first use so that importing resgate
    and the channel paths load no scipy."""
    from scipy.linalg import expm

    return expm(m)


def _lab_blocks(params: DerivedGateParams, alpha: complex, n_ph: int, dt: float, stops):
    """Yield (step, blocks) at each grid step of stops (ascending, from 0):
    the (10, n_ph, n_ph) lab-frame blocks r_ij of _UPPER, each evolved from
    the cavity |alpha><alpha| by its own propagator expm(L(lam_i, lam_j) dt)
    (_block_generator), dephasing left out.

    The ten propagators come from one batched expm, and all ten blocks
    advance together by one batched matmul per grid step.
    """
    lam = np.array(_branch_amplitudes(params))
    props = _expm(_block_generator(params, n_ph)(lam[_UPPER_I], lam[_UPPER_J]) * dt)
    (ket,) = _coherent_kets(n_ph, [alpha])
    vec = np.repeat(np.outer(ket, ket.conj()).reshape(1, -1, 1), len(_UPPER), axis=0)
    done = 0
    for step in stops:
        for _ in range(step - done):
            vec = props @ vec
        done = step
        yield step, vec.reshape(len(_UPPER), n_ph, n_ph)


def extract_channel(
    params: DerivedGateParams,
    gamma_1: float,
    gamma_2: float,
    initial_cavity: CavityPrep | None = None,
    *,
    n_ph: int | None = None,
    top_level_threshold: float = DEFAULT_TOP_LEVEL_THRESHOLD,
) -> tuple[TwoQubitChannel, SimDiagnostics]:
    """Exact effective two-qubit channel of one gate, in closed form per qubit block.

    gamma_1, gamma_2 in 1/s. The cavity starts in vacuum (the default) or
    in a coherent state; a thermal preparation raises DomainError, since
    its channel is the seeded Monte-Carlo average of thermal_average_channel.
    The channel is diagonal: rho_ij -> C_ij rho_ij with
    C_ij = exp(-c_ij t_g) Tr[exp(L(lam_i, lam_j) t_g) cav] (see
    _block_generator), where c_ij is gamma_k summed over the qubits k whose
    Z eigenvalues differ between i and j, and C_ji = conj(C_ij).

    Each block is carried in its branches' displaced frame,
    r'_ij = D(beta_i)^dag r_ij D(beta_j) with beta_i the steady state of
    branch i (_steady_shift): there the cavity only holds the decaying
    |alpha - beta_i| e^{-kappa t}, not the whole excursion
    |beta_i| + |alpha - beta_i|, and no level feeds the one above it. With
    n_ph None the space is sized from max_i |alpha - beta_i| (_reach,
    displaced): 6 levels from vacuum at a default point, where the lab frame
    needs 8. C_ij = Tr[r'_ij D(beta_j)^dag D(beta_i)] of the ten blocks on
    and above the diagonal is read over the whole gate in one exact step
    (_readout: the factorized generator carries the start kets through
    exp(x a) and a damped, rotating oscillator, and the oscillator's adjoint
    moves onto the readout displacement), with no time grid, no expm and no
    block built, exact on the kept levels.

    The guard-level population, in the displaced frame, is the maximum over
    all four diagonal blocks and the whole gate. A diagonal block sees only
    L0, which lowers, so its top level holds exp(-2 kappa t (n_ph - 1)) times
    its start value: the maximum is the start's, exactly. For basis-state
    inputs the composite state is a single diagonal block, so it is the
    worst case over any qubit input. SimDiagnostics reports steps = 1 and
    dt_ns = t_g: one exact propagation.
    """
    (coh,), diag = _coherences(params, gamma_1, gamma_2, [_start_amplitude(initial_cavity)],
                               n_ph, top_level_threshold)
    return TwoQubitChannel(coh), diag


def _coherences(
    params: DerivedGateParams, gamma_1: float, gamma_2: float, alphas,
    n_ph: int | None, top_level_threshold: float,
) -> tuple[np.ndarray, SimDiagnostics]:
    """The (S, 4, 4) coherence matrices of the gate from each coherent start
    of alphas, in the displaced frame, and one SimDiagnostics whose guard
    population is the largest over all of them (see extract_channel). With
    n_ph None every start shares the size the largest of them needs."""
    if n_ph is None:
        n_ph = choose_n_ph(max(_reach(params, alpha, displaced=True) for alpha in alphas))
    t_g = params.t_g_ns
    frame = _frame_terms(params)
    psi = _branch_kets(frame[0], alphas, n_ph)
    diag = _run_health(float((np.abs(psi[..., -1]) ** 2).max()), 1, t_g, n_ph,
                       top_level_threshold)
    traces = _readout(params, frame, psi, t_g)

    rates = _dephasing_rates(gamma_1, gamma_2)[_UPPER_I, _UPPER_J]
    coh = np.zeros((len(traces), 4, 4), dtype=complex)
    coh[:, _UPPER_I, _UPPER_J] = np.exp(-rates * t_g) * traces
    coh[:, _UPPER_J, _UPPER_I] = np.conj(coh[:, _UPPER_I, _UPPER_J])
    coh[:, range(4), range(4)] = traces[:, _UPPER_I == _UPPER_J].real
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
    sum_ij ||r_ij||^2 over the ten blocks on and above the diagonal, which
    _lab_blocks steps in the lab frame. With n_ph None the space is sized
    from the lab-frame reach, choose_n_ph(_reach). The residual column is
    the same displaced-frame ground-state defect polaron_residual()
    maximizes; for non-vacuum preparations or gamma > 0 it is reported
    as-is rather than being expected small.
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

    on_diag = _UPPER_I == _UPPER_J
    weight = np.abs(q[_UPPER_I, _UPPER_J]) ** 2 * np.where(on_diag, 1.0, 2.0)
    rate = _dephasing_rates(gamma_1, gamma_2)[_UPPER_I, _UPPER_J]
    photons = np.arange(n_ph)

    stops = [*range(0, steps, stride), steps]
    rows: list[dict] = []
    for step, blocks in _lab_blocks(params, alpha, n_ph, dt, stops):
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
    top_level_threshold: float = DEFAULT_TOP_LEVEL_THRESHOLD,
) -> tuple[TwoQubitChannel, SimDiagnostics]:
    """Monte-Carlo thermal-state channel with per-sample local-Z compensation.

    Draws coherent amplitudes from the complex Gaussian of variance n_bar
    (the P-representation of a thermal state) and reads the coherence
    matrix of every sample in one closed-form pass. One batched local-Z fit
    then strips each sample's deterministic drive-induced single-qubit Z
    phases by two trailing Z angles of its own (the fit of fit_local_z, run
    on the whole stack at once), and the compensated coherence matrices are
    averaged. Deterministic for a given seed. n_bar = 0 short-circuits to
    the plain vacuum extraction (bit-identical with it).

    Every sample is carried in the branches' displaced frame (see
    extract_channel). All samples share one Fock space, n_ph or else the
    size the largest displaced reach among them needs,
    max_i |alpha_s - beta_i| (_reach): each sample is only one more start of
    the same _readout call. The diagnostics report that size and the worst
    displaced-frame guard population of any sample.
    """
    if n_bar < 0:
        raise DomainError(f"n_bar must be non-negative, got {n_bar}")
    if sample_count < 1:
        raise DomainError(f"sample_count must be >= 1, got {sample_count}")
    if n_bar == 0.0:
        return extract_channel(
            params, gamma_1, gamma_2, CavityPrep.vacuum(), n_ph=n_ph,
            top_level_threshold=top_level_threshold,
        )

    rng = np.random.default_rng(seed)
    sigma = math.sqrt(n_bar / 2.0)
    alphas = [complex(re_b, im_b) for re_b, im_b in rng.normal(0.0, sigma, (sample_count, 2))]
    cohs, diag = _coherences(params, gamma_1, gamma_2, alphas, n_ph, top_level_threshold)

    _, fixed, _ = _fit_stack(cohs, _target_weights(gate_target(params)))
    return TwoQubitChannel(fixed.mean(axis=0)), diag
