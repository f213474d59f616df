"""Reference local-Z fit: the four-probe coordinate ascent resgate.fidelity
used before its coefficient form.

F_avg is evaluated directly from the compensated coherence matrix
(v v^dag) o C at every probe, with no coefficient table: at a fixed other
angle F_avg is c + a cos(t) + b sin(t) in each angle, so its maximizer is
t = atan2(F(pi/2) - F(-pi/2), F(0) - F(pi)). A 25 x 25 grid over
[-pi, pi)^2 seeds the ascent, which runs until a round gains less than
1e-14 or 40 rounds have run. It shares no code with resgate.fidelity,
which is why the tests compare the fit against it.
"""

from __future__ import annotations

import math

import numpy as np

_PROBE_ANGLES = np.array([0.0, math.pi, 0.5 * math.pi, -0.5 * math.pi])


def _outer(v: np.ndarray) -> np.ndarray:
    """v_i conj(v_j) along the trailing axis."""
    return v[..., :, None] * v[..., None, :].conj()


def _local_z_phases(theta_1, theta_2) -> np.ndarray:
    """Diagonal of Rz(theta_1) (x) Rz(theta_2) along a trailing axis; the
    angles broadcast against each other."""
    a, b = np.exp(-0.5j * theta_1), np.exp(-0.5j * theta_2)
    return np.stack([a * b, a * b.conjugate(), a.conjugate() * b,
                     a.conjugate() * b.conjugate()], axis=-1)


def reference_fit(coherence: np.ndarray, target: np.ndarray) -> tuple[float, float, float]:
    """(theta_1, theta_2, F_avg) of the four-probe local-Z fit of C against
    the 4x4 diagonal target unitary."""
    w = np.conj(_outer(np.diag(target))) * np.asarray(coherence, dtype=complex)

    def f_of(t1, t2):
        f_e = (_outer(_local_z_phases(t1, t2)) * w).sum(axis=(-2, -1)).real / 16.0
        return (4.0 * f_e + 1.0) / 5.0

    def best_angle(f_0, f_pi, f_up, f_down) -> float:
        return math.atan2(f_up - f_down, f_0 - f_pi)

    grid = np.linspace(-math.pi, math.pi, 25, endpoint=False)
    vals = f_of(grid[:, None], grid[None, :])
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    t1, t2 = float(grid[i]), float(grid[j])
    prev = float(vals[i, j])
    for _ in range(40):
        t1 = best_angle(*f_of(_PROBE_ANGLES, t2))
        t2 = best_angle(*f_of(t1, _PROBE_ANGLES))
        cur = float(f_of(t1, t2))
        if cur - prev < 1e-14:
            break
        prev = cur
    return t1, t2, float(f_of(t1, t2))
