"""Structure factors of the dimer and the spin correlation they encode.

Everything here is a function of the scalar scattering phase
x = q . (r1 - r2); vector inputs are reduced to x immediately.
"""

from __future__ import annotations

import numpy as np

from .spin_core import (
    EigenSystem,
    SPIN_SITE_1,
    SPIN_SITE_2,
    require_density_matrix,
)


def _finite(x, name: str = "x"):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def scattering_phase(q: np.ndarray, r1: np.ndarray, r2: np.ndarray) -> float:
    """Scalar phase q . (r1 - r2) from an explicit scattering geometry.

    r1 and r2 are the positions of the two magnetic centers, in the inverse
    of the unit of the wave vector q.
    """
    q = _finite(q, "q")
    r1 = _finite(r1, "r1")
    r2 = _finite(r2, "r2")
    if q.shape != (3,) or r1.shape != (3,) or r2.shape != (3,):
        raise ValueError("q, r1 and r2 must be 3-vectors")
    return float(np.dot(q, r1 - r2))


def scattering_phases(q: np.ndarray, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Row-wise phases q . (r1 - r2) over (n, 3) arrays, without validation.

    Each row equals `scattering_phase` of that row bit for bit: the batched
    matmul reduces every 3-vector pair through the same dot kernel, where an
    elementwise sum of products or einsum rounds differently on about a third
    of rows. Non-finite inputs give non-finite phases for the caller to reject.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return np.matmul(q[:, None, :], (r1 - r2)[:, :, None])[:, 0, 0]


def scalar_structure_factor(x):
    """Energy-integrated scattering intensity (1 - cos x)/2, in [0, 1].

    Vanishes at x = 0, peaks at x = pi, has period 2*pi and is even in x.
    Accepts scalars or arrays.
    """
    x = _finite(x)
    return 0.5 * (1.0 - np.cos(x))


def correlation_from_structure(x):
    """Same-axis spin-spin correlation extracted from the structure factor.

    Returns the pair (C, Re C) with C = exp(-i x) * S(x). The real part
    cos(x) (1 - cos x)/2 is the physical correlation used by every
    downstream quantifier; the complex value is kept for reference.
    """
    x = _finite(x)
    c = np.exp(-1j * x) * scalar_structure_factor(x)
    return c, np.real(c)


def exclusive_structure_factor(
    initial: np.ndarray,
    eigensys: EigenSystem,
    q: np.ndarray,
    r1: np.ndarray,
    r2: np.ndarray,
) -> np.ndarray:
    """3x3 tensor of transition intensities out of `initial`, per wave vector.

    Entry (a, b) is sum_f <i|U_a^dag|f><f|U_b|i> with
    U_a = S_1^a e^{i q.r1} + S_2^a e^{i q.r2}, the sum running over the
    eigenstates whose energy differs from the initial one (elastic terms
    drop out). For the singlet this reduces to delta_ab times the scalar
    structure factor.

    `initial` is one normalized 4-component state and `r1`, `r2` are
    3-vectors. `q` has shape (3,), giving one tensor of shape (3, 3), or
    (..., 3) for a stack of wave vectors, giving shape (..., 3, 3). Every
    product is a matmul over the trailing axes, so each tensor of a stack
    equals the call on its own `q` bit for bit.
    """
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (4,):
        raise ValueError("initial must be a 4-component state vector")
    if abs(np.linalg.norm(initial) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    q = _finite(q, "q")
    if q.shape[-1:] != (3,):
        raise ValueError(f"q must be a 3-vector or a stack of them, got shape {q.shape}")
    r1 = _finite(r1, "r1")
    r2 = _finite(r2, "r2")
    for name, r in (("r1", r1), ("r2", r2)):
        if r.shape != (3,):
            raise ValueError(f"{name} must be a 3-vector, got shape {r.shape}")

    # (..., 1, 3) @ (3, 1): each q.r goes through the dot kernel of np.dot.
    rows = q[..., None, :]
    phase1 = np.exp(1j * (rows @ r1[:, None]))[..., None, :]
    phase2 = np.exp(1j * (rows @ r2[:, None]))[..., None, :]
    ops = phase1 * SPIN_SITE_1 + phase2 * SPIN_SITE_2  # (..., 3, 4, 4)

    energies = eigensys.energies
    e_initial = float(
        np.sum(np.abs(eigensys.states.conj().T @ initial) ** 2 * energies)
    )
    atol = 1e-9 * max(1.0, float(np.max(np.abs(energies))))
    final = np.abs(energies - e_initial) > atol

    # amplitudes[..., a, f] = <f|U_a|i> for the selected final states
    amplitudes = (eigensys.states[:, final].conj().T @ (ops @ initial)[..., None])[..., 0]
    return amplitudes.conj() @ amplitudes.swapaxes(-1, -2)


def integrated_structure_factor(
    rho: np.ndarray,
    q: np.ndarray,
    r1: np.ndarray,
    r2: np.ndarray,
) -> complex:
    """Energy-integrated double site sum of same-axis spin correlators.

    Evaluates sum_a sum_{l,m} e^{i q.(r_l - r_m)} <S_l^a S_m^a> on rho.
    Cross-axis terms are omitted: they vanish identically for dimer
    eigenstates and thermal states (the oracle asserts this).
    """
    rho = require_density_matrix(rho)
    positions = (np.asarray(r1, dtype=float), np.asarray(r2, dtype=float))
    sites = (SPIN_SITE_1, SPIN_SITE_2)
    total = 0.0 + 0.0j
    for axis in range(3):
        for l in range(2):
            for m in range(2):
                phase = np.exp(1j * scattering_phase(q, positions[l], positions[m]))
                total += phase * np.trace(rho @ sites[l][axis] @ sites[m][axis])
    return complex(total)
