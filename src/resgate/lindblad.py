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
polaron_residual) take SI-valued DerivedGateParams and dephasing rates in
1/s; the generators and propagators inside work in the internal system
rad/ns, 1/ns, ns.

Basis ordering is qubit_1 (x) qubit_2 (x) Fock, i.e. the Fock index runs
fastest. H, the photon loss and the dephasing all commute with Z1 and Z2,
so the qubit block r_ij = <i|rho|j> (an n_ph x n_ph cavity operator)
evolves on its own under a fixed generator L_ij. The effective two-qubit
channel is therefore the elementwise map rho_ij -> C_ij rho_ij with
C_ij = Tr[exp(L_ij t_g) cav], stored as C; the dephasing scales it by
exp(-1e-9 R_ij t_g), R the rate table of channel._dephasing_rates, as in the
analytic E_q. Every pure start is a coherent state (the vacuum is
alpha = 0), so each block starts as a dyad of coherent kets.

Channel path (extract_channel): branch i drives the cavity towards its
steady state beta_i = -i lam_i / (2 (i Delta + kappa)) (channel._loops: the
coherent-branch picture of Gambetta et al., PRA 74, 042318 (2006)).
In the branches' displaced frame r'_ij = D(beta_i)^dag r_ij D(beta_j) the
generator is the undriven damped oscillator L0 plus two lowering terms and
a scalar (_frame_terms), and L0 shifts each lowering term by a constant
factor, so exp(L t) factorizes exactly (Wei & Norman, J. Math. Phys. 4,
575 (1963)) into exp(x a) on the start kets and the amplitude-damping
channel. Only the trace Tr[r' D(beta_j)^dag D(beta_i)] of each block enters
C, and the adjoint of amplitude damping maps a normally ordered
displacement onto a damped one, so each C_ij is one inner product of two
start kets under exponentials of a. On a truncated coherent ket exp(y a)
is a weight per level, a partial sum of exp (_readout): exact on the kept
levels, over the whole gate in one step, with no time grid, no expm, no
scipy and no block or operator built. There the cavity holds only
|alpha - beta_i| e^{-kappa t}, no level feeds the one above it, and the
guard-level population is largest at the start; the Fock space is sized
as choose_n_ph(max_i |alpha - beta_i|). A thermal cavity is not one state
but a Gaussian mixture of coherent ones, and log C_ij(alpha) is linear in
alpha and alpha^*, so the mixture's average is exact in closed form: the
vacuum channel times a Gaussian kernel in beta_i - beta_j. extract_channel
takes every preparation; the lab-frame paths, which follow one state,
reject a thermal one.

Lab-frame paths (trajectory_rows, polaron_residual) report per-step
quantities, so they step the ten blocks on and above the diagonal with
their own expm(L_ij dt) on the fixed grid of _step_grid (_lab_blocks), the
one expm of a trajectory, read the residual by overlap with coherent kets
(_polaron_defect), and size the space from the lab-frame reach. scipy (for
expm) is imported on these paths' first use only. The truncated generator
preserves the trace of a
diagonal block exactly (Tr(A r A^dag) = Tr(A^dag A r), and a commutator is
traceless), so the channel path checks only the guard-level population,
in its frame.
The tests check both engines against an independent dense-composite RK4
integrator kept in tests/rk4_reference.py.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .channel import TwoQubitChannel, _branch_couplings, _dephasing_rates, _loops
from .device import CavityPrep, DerivedGateParams
from .errors import DomainError

DEFAULT_N_PH = 6  # levels 0..5: one guard level above the 4-photon working range
_GUARD_TAIL = 1e-5  # choose_n_ph's bound on the guard-level population
# Guard-level population above which a numeric run is flagged as failed.
DEFAULT_TOP_LEVEL_THRESHOLD = 1e-4
# Fixed-step rule of the lab-frame paths (_step_grid): 20 ps steps, unless
# that lands outside [_MIN_STEPS, _MAX_STEPS].
_DT_NS, _MIN_STEPS, _MAX_STEPS = 0.020, 200, 10000


def _coherent_kets(n_ph: int, amps) -> np.ndarray:
    """Rows |amp> over levels 0..n_ph-1, truncated and renormalized:
    amplitudes amp^m / sqrt(m!) by their running product."""
    amps = np.asarray(amps, dtype=complex)
    ratios = amps[:, None] / np.sqrt(np.arange(1, n_ph))
    kets = np.cumprod(np.concatenate([np.ones((len(amps), 1)), ratios], axis=1), axis=1)
    return kets / np.linalg.norm(kets, axis=1, keepdims=True)


def _tail_weights(ys: np.ndarray, n_ph: int) -> np.ndarray:
    """E_{n_ph-1-m}(y) over levels m < n_ph, per y, with E_K(y) = sum_{k<=K}
    y^k / k! the partial sums of exp(y): the weight exp(x a) puts on level m
    of a truncated coherent ket of amplitude g, at y = x g (_readout)."""
    ys = np.asarray(ys, dtype=complex)[:, None]
    terms = np.cumprod(np.concatenate([np.ones_like(ys), ys / np.arange(1, n_ph)], axis=1),
                       axis=1)  # y^k / k!
    return np.cumsum(terms, axis=1)[:, ::-1]


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


def _run_health(max_top: float, steps: int, dt: float, n_ph: int) -> SimDiagnostics:
    """Diagnostics from the worst guard-level population of a run."""
    reasons = []
    if max_top > DEFAULT_TOP_LEVEL_THRESHOLD:
        reasons.append(
            f"top Fock level population {max_top:.3e} exceeds "
            f"{DEFAULT_TOP_LEVEL_THRESHOLD:.0e} (n_ph = {n_ph} too small for these parameters)"
        )
    return SimDiagnostics(
        max_top_level_pop=max_top,
        steps=steps,
        dt_ns=dt,
        n_ph=n_ph,
        failed=bool(reasons),
        failure_reasons=tuple(reasons),
    )


def choose_n_ph(max_amplitude: float) -> int:
    """Smallest Fock dimension, at least DEFAULT_N_PH, with the guard level
    of a coherent state below _GUARD_TAIL.

    ``max_amplitude`` is the largest coherent amplitude the run must hold in
    the frame it runs in (max_i |alpha - beta_i| displaced, _reach in the lab
    frame). The guard level of a coherent state |amp| is Poissonian, so walk
    the pmf until it drops that low.
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


def _step_grid(t_ns: float) -> tuple[int, float]:
    """(step count, actual dt) of the lab-frame grid over a run of t_ns:
    _DT_NS steps, clamped to [_MIN_STEPS, _MAX_STEPS]."""
    if t_ns <= 0:
        raise DomainError(f"total time must be positive, got {t_ns}")
    steps = min(max(int(round(t_ns / _DT_NS)), _MIN_STEPS), _MAX_STEPS)
    return steps, t_ns / steps


def _check_n_ph(n_ph) -> int:
    """A given Fock size as an int of at least 2 levels, else DomainError."""
    if isinstance(n_ph, bool) or not hasattr(n_ph, "__index__") or operator.index(n_ph) < 2:
        raise DomainError(f"need at least 2 Fock levels, got {n_ph!r}")
    return operator.index(n_ph)


def _reach(params: DerivedGateParams, alpha: complex = 0j) -> float:
    """Largest lab-frame cavity amplitude any branch holds over t >= 0, from
    alpha(0) = alpha: the size rule of the lab-frame paths.

    Branch i is driven at lam_i = g1 s1 + g2 s2, so its amplitude
    alpha_i(t) = beta_i + (alpha - beta_i) exp(-(i Delta + kappa) t) circles
    its steady state beta_i = -i lam_i / (2 (i Delta + kappa)) on a shrinking
    radius, and |beta_i| + |alpha - beta_i| is the supremum of |alpha_i(t)|
    (reached at kappa = 0). All beta_i share the phase u = -i conj(z)/|z|,
    z = kappa + i Delta, so with b_i = lam_i / (2|z|) that sum is
    |b_i| + |alpha conj(u) - b_i|; at alpha = 0 it is |lam_i| / |z| exactly,
    the loop radius of branch i.
    """
    h = math.hypot(params.delta_rad_ns, params.kappa_per_ns)
    w = alpha * complex(-params.delta_rad_ns, params.kappa_per_ns) / h  # alpha conj(u)
    return max(abs(b) + abs(w - b) for b in (_branch_couplings(params) / (2.0 * h)).tolist())


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
    a = np.diag(np.sqrt(np.arange(1.0, n_ph)), k=1)
    num, eye = np.diag(np.arange(float(n_ph))), np.eye(n_ph)
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


# qubit index pairs (i, j) of the blocks on and above the diagonal, row-major;
# those below are their adjoints; _UPPER_I and _UPPER_J index them, read-only
# as every call shares them
_UPPER_I, _UPPER_J = np.triu_indices(4)
_UPPER_I.flags.writeable = _UPPER_J.flags.writeable = False
_UPPER = tuple(zip(_UPPER_I.tolist(), _UPPER_J.tolist()))


def _frame_terms(params: DerivedGateParams):
    """The displaced-frame generator of each block of _UPPER, in the pieces
    its exponential factorizes into (internal units).

    In the frame r' = D(beta_i)^dag r D(beta_j) of the branch steady states
    beta = -i lam / (2 z), z = kappa + i Delta (channel._loops), a becomes
    a + beta on each side, and the generator of _block_generator becomes

        L r' = L0 r' + c_a a r' + c_b r' a^dag + s r',
        L0 r' = -i Delta [n, r'] + kappa (2 a r' a^dag - n r' - r' n),
        c_a = 2 kappa (beta_j - beta_i)^*,  c_b = 2 kappa (beta_i - beta_j),

    plus the scalar s = -i(e_i - e_j) + kappa (2 beta_i beta_j^* - |beta_i|^2
    - |beta_j|^2), e = Delta |beta|^2 + lam Re beta. At the steady state the
    drive and the a^dag r', r' a terms cancel exactly, so no level feeds the
    one above it, and a diagonal block sees L0 alone: c_a, c_b and s are
    exactly 0 there (Im(beta_i beta_j^*) is taken by real products, as a
    fused complex product leaves a rounding residue). Returns z, beta over
    the branches, and c_a and s over _UPPER; c_b = -c_a^*.
    """
    kappa, delta = params.kappa_per_ns, params.delta_rad_ns
    lam = _branch_couplings(params)
    z, beta = _loops(params)
    b_i, b_j = beta[_UPPER_I], beta[_UPPER_J]
    energy = (delta * (np.abs(b_i) ** 2 - np.abs(b_j) ** 2)
              + lam[_UPPER_I] * b_i.real - lam[_UPPER_J] * b_j.real)
    loss = -np.abs(b_i - b_j) ** 2 + 2j * (b_i.imag * b_j.real - b_i.real * b_j.imag)
    return z, beta, 2.0 * kappa * (b_j - b_i).conj(), -1j * energy + kappa * loss


def _branch_kets(beta: np.ndarray, alpha: complex, n_ph: int) -> np.ndarray:
    """psi_k = D(beta_k)^dag |alpha> = exp(i Im(beta_k^* alpha)) |alpha - beta_k>
    for each branch steady state beta_k of _frame_terms and the coherent
    start alpha, truncated and renormalized: a (4, n_ph) array. Block (i, j)
    starts as psi_i psi_j^dag."""
    return np.exp(1j * (beta.conj() * alpha).imag)[:, None] * _coherent_kets(n_ph, alpha - beta)


def _readout(frame, psi: np.ndarray, alpha: complex, t: float) -> np.ndarray:
    """Tr r_ij(t) of every block of _UPPER at time t, in closed form, from the
    branch kets psi of _branch_kets at the coherent start alpha and the terms
    frame of _frame_terms: a (10,) array, dephasing left out.

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

    psi_k is a truncated coherent ket of amplitude g_k = alpha - beta_k, on
    whose level m exp(y a) is the weight E_{n_ph-1-m}(y g_k) (_tail_weights),
    exact on the kept levels, as E and the starts are. No block,
    displacement or Kraus operator is built; as n_ph grows the weights
    become exp(y g_k), the untruncated readout.
    """
    n_ph = psi.shape[-1]
    z, beta, c_a, s = frame
    decay = cmath.exp(-z * t)
    delta = beta[_UPPER_I] - beta[_UPPER_J]
    p = delta.conj() * decay - c_a * ((1.0 - decay) / z)
    g = alpha - beta
    left = psi[_UPPER_I] * _tail_weights(-p * g[_UPPER_I], n_ph)
    right = psi[_UPPER_J] * _tail_weights(p * g[_UPPER_J], n_ph)
    return np.exp(s * t - 0.5 * np.abs(delta) ** 2) * np.einsum("um,um->u", right.conj(), left)


def _expm(m: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported on first use so that importing resgate
    and the channel paths load no scipy."""
    from scipy.linalg import expm

    return expm(m)


def _lab_blocks(params: DerivedGateParams, alpha: complex, n_ph: int, dt: float, steps: int):
    """Yield the (10, n_ph, n_ph) lab-frame blocks r_ij of _UPPER at grid
    steps 0, 1, ..., steps, each evolved from the cavity |alpha><alpha| by
    its own propagator expm(L(lam_i, lam_j) dt) (_block_generator),
    dephasing left out.

    The ten propagators come from one batched expm, and all ten blocks
    advance together by one batched matmul per grid step.
    """
    lam = _branch_couplings(params)
    props = _expm(_block_generator(params, n_ph)(lam[_UPPER_I], lam[_UPPER_J]) * dt)
    (ket,) = _coherent_kets(n_ph, [alpha])
    vec = np.repeat(np.outer(ket, ket.conj()).reshape(1, -1, 1), len(_UPPER), axis=0)
    for step in range(steps + 1):
        if step:
            vec = props @ vec
        yield vec.reshape(len(_UPPER), n_ph, n_ph)


def extract_channel(
    params: DerivedGateParams,
    gamma_1: float,
    gamma_2: float,
    initial_cavity: CavityPrep | None = None,
    *,
    n_ph: int | None = None,
) -> tuple[TwoQubitChannel, SimDiagnostics]:
    """Exact effective two-qubit channel of one gate, in closed form per qubit block.

    gamma_1, gamma_2 in 1/s, finite and non-negative (else DomainError).
    The cavity starts in vacuum (the default), in a coherent state or in a
    thermal one; n_ph, if given, is an int of at least 2 levels (else
    DomainError). The channel is diagonal:
    rho_ij -> C_ij rho_ij with
    C_ij = exp(-c_ij t_g) Tr[exp(L(lam_i, lam_j) t_g) cav] (see
    _block_generator), where c_ij = 1e-9 R_ij (channel._dephasing_rates) is
    gamma_k summed over the qubits k whose Z eigenvalues differ between i and
    j, and C_ji = conj(C_ij).

    Each block is carried in its branches' displaced frame,
    r'_ij = D(beta_i)^dag r_ij D(beta_j) with beta_i the steady state of
    branch i (channel._loops): there the cavity only holds the decaying
    |alpha - beta_i| e^{-kappa t}, not the whole excursion
    |beta_i| + |alpha - beta_i|, and no level feeds the one above it. With
    n_ph None the space is choose_n_ph(max_i |alpha - beta_i|), from the
    beta_i the start kets use: 6 levels from vacuum at a default point,
    where the lab frame (_reach) needs 8. C_ij = Tr[r'_ij D(beta_j)^dag
    D(beta_i)] of the ten blocks on and above the diagonal is read over the
    whole gate in one exact step (_readout: the factorized generator carries
    the start kets through exp(x a) and a damped, rotating oscillator, the
    oscillator's adjoint moves onto the readout displacement, and each
    lowering exponential weights the kets' levels), with no time grid, no
    expm and no block built, exact on the kept levels.

    A thermal cavity of mean photon number n_bar is the average of
    |alpha><alpha| over its P-function, the complex Gaussian of variance
    n_bar, and log C_ij(alpha) is linear in alpha and alpha^* (the |alpha|^2
    terms cancel), so that average is exact:

        C_ij = C_ij(vacuum) exp(-n_bar |1 - exp(-z t_g)|^2 |beta_i - beta_j|^2),

    z = kappa + i Delta: a Gaussian kernel in beta, which keeps the channel
    completely positive, and 1 where the loops of a lossless gate close.
    Every preparation carries its n_bar, 0 unless thermal, and at n_bar = 0
    the kernel is exactly 1, so it is always applied. A thermal start's
    alpha is 0, so its Fock size, guard check and diagnostics are the
    vacuum's.

    The guard-level population, in the displaced frame, is the maximum over
    all four diagonal blocks and the whole gate. A diagonal block sees only
    L0, which lowers, so its top level holds exp(-2 kappa t (n_ph - 1)) times
    its start value: the maximum is the start's, exactly. For basis-state
    inputs the composite state is a single diagonal block, so it is the
    worst case over any qubit input. SimDiagnostics reports steps = 1 and
    dt_ns = t_g: one exact propagation.
    """
    prep = initial_cavity or CavityPrep.vacuum()
    rates = 1e-9 * _dephasing_rates(gamma_1, gamma_2)[_UPPER_I, _UPPER_J]
    t_g = params.t_g_ns
    frame = _frame_terms(params)
    z, beta = frame[:2]
    n_ph = (choose_n_ph(float(np.abs(prep.alpha - beta).max())) if n_ph is None
            else _check_n_ph(n_ph))
    psi = _branch_kets(beta, prep.alpha, n_ph)
    diag = _run_health(float((np.abs(psi[:, -1]) ** 2).max()), 1, t_g, n_ph)
    traces = _readout(frame, psi, prep.alpha, t_g)

    thermal = np.exp(-prep.n_bar * abs(1.0 - cmath.exp(-z * t_g)) ** 2
                     * np.abs(beta[_UPPER_I] - beta[_UPPER_J]) ** 2)
    coh = np.zeros((4, 4), dtype=complex)
    coh[_UPPER_I, _UPPER_J] = np.exp(-rates * t_g) * traces * thermal
    coh[_UPPER_J, _UPPER_I] = np.conj(coh[_UPPER_I, _UPPER_J])
    coh[range(4), range(4)] = traces[_UPPER_I == _UPPER_J].real
    return TwoQubitChannel(coh), diag


def _polaron_defect(r_diag: np.ndarray, params: DerivedGateParams, t_ns: float) -> float:
    """1 - sum_i <phi_i| r_ii |phi_i> / Tr r over the diagonal blocks r_ii:
    the weight off the coherent state phi_i = |beta_i (1 - e^{-z t})> branch
    i should hold from the vacuum (channel._loops). phi_i is the truncated,
    renormalized ket the starts use, so a vacuum start reads exactly 0 at
    t = 0."""
    z, beta = _loops(params)
    phi = _coherent_kets(r_diag.shape[-1], beta * (1.0 - cmath.exp(-z * t_ns)))
    held = np.einsum("im,imn,in->", phi.conj(), r_diag, phi).real
    return 1.0 - float(held) / float(np.einsum("imm->", r_diag).real)


def polaron_residual(params: DerivedGateParams, *, n_ph: int | None = None) -> float:
    """Max weight the cavity misses on the coherent paths of the qubit
    branches, throughout the gate.

    Evolves |++> (vacuum cavity, no intrinsic dephasing) and at every step
    reads each diagonal block r_ii against the coherent state
    phi_i = |beta_i (1 - e^{-z t})> its branch should hold (channel._loops:
    the coherent-branch picture of Gambetta et al., PRA 74, 042318 (2006)),
    up to truncation error:

        residual(t) = 1 - sum_i <phi_i| r_ii |phi_i> / Tr[rho].

    Returns the largest of trajectory_rows' polaron_residual column, over
    every step of the gate, at the same n_ph (with n_ph None both take the
    lab-frame size choose_n_ph(_reach)).
    """
    return max(row["polaron_residual"] for row in trajectory_rows(params, 0.0, 0.0, n_ph=n_ph))


def trajectory_rows(
    params: DerivedGateParams,
    gamma_1: float,
    gamma_2: float,
    initial_cavity: CavityPrep | None = None,
    *,
    n_ph: int | None = None,
) -> list[dict]:
    """Per-step state metrics for the optional trajectory dump.

    Evolves a single composite state (|++> with the requested vacuum or
    coherent cavity; a thermal one, a mixture, raises DomainError; gamma in
    1/s, finite and non-negative) on the fixed grid of _step_grid (20 ps
    steps, 200-10000 of them) and records, at every step, a row with keys
    t_ns, trace, purity, mean_photon, top_level_pop, polaron_residual.
    Every number comes from the qubit blocks r_ij(t) =
    q_ij exp(-c_ij t) expm(L_ij t) cav: trace, mean_photon, top_level_pop
    and the residual from the four diagonal blocks, and the purity as
    sum_ij ||r_ij||^2 over the ten blocks on and above the diagonal, which
    _lab_blocks steps in the lab frame. With n_ph None the space is sized
    from the lab-frame reach, choose_n_ph(_reach). The residual column is
    the coherent-path defect polaron_residual() maximizes (_polaron_defect);
    for non-vacuum preparations or gamma > 0 it is reported as-is rather
    than being expected small.
    """
    prep = initial_cavity or CavityPrep.vacuum()
    if prep.kind == "thermal":
        raise DomainError("a trajectory follows one cavity state, but a thermal "
                          "cavity is a mixture; use a vacuum or coherent preparation")
    rate = 1e-9 * _dephasing_rates(gamma_1, gamma_2)[_UPPER_I, _UPPER_J]
    n_ph = choose_n_ph(_reach(params, prep.alpha)) if n_ph is None else _check_n_ph(n_ph)
    q = np.full((4, 4), 0.25, dtype=complex)  # |++><++|
    steps, dt = _step_grid(params.t_g_ns)

    on_diag = _UPPER_I == _UPPER_J
    weight = np.abs(q[_UPPER_I, _UPPER_J]) ** 2 * np.where(on_diag, 1.0, 2.0)

    rows: list[dict] = []
    for step, blocks in enumerate(_lab_blocks(params, prep.alpha, n_ph, dt, steps)):
        t_now = step * dt
        r_diag = np.diagonal(q)[:, None, None] * blocks[on_diag]
        pops = np.einsum("inn->in", r_diag).real
        sq_norms = (np.abs(blocks) ** 2).sum(axis=(1, 2))
        rows.append({
            "t_ns": t_now,
            "trace": float(pops.sum()),
            "purity": float((weight * np.exp(-2.0 * rate * t_now) * sq_norms).sum()),
            "mean_photon": float((pops * np.arange(n_ph)).sum()),
            "top_level_pop": float(pops[:, -1].sum()),
            "polaron_residual": _polaron_defect(r_diag, params, t_now),
        })
    return rows
