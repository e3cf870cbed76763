"""Structure factors of the dimer.

The scalar structure factor is a function of the scattering phase
x = q . (r1 - r2) alone. The exclusive and integrated structure factors
take the wave vector q and the site positions r1, r2 themselves, and both
are built from the site-sum operators U_a = S_1^a e^{i q.r1} + S_2^a e^{i q.r2}.
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


def _geometry(q, r1, r2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`q` of shape (..., 3) and the 3-vectors `r1`, `r2`, checked finite, as float arrays."""
    q = _finite(q, "q")
    if q.shape[-1:] != (3,):
        raise ValueError(f"q must be a 3-vector or a stack of them, got shape {q.shape}")
    r1 = _finite(r1, "r1")
    r2 = _finite(r2, "r2")
    for name, r in (("r1", r1), ("r2", r2)):
        if r.shape != (3,):
            raise ValueError(f"{name} must be a 3-vector, got shape {r.shape}")
    return q, r1, r2


def scattering_phase(q: np.ndarray, r1: np.ndarray, r2: np.ndarray) -> float:
    """Scalar phase q . (r1 - r2) from an explicit scattering geometry.

    r1 and r2 are the positions of the two magnetic centers, in the inverse
    of the unit of the wave vector q. All three are finite 3-vectors,
    checked as the structure factors check them, and so is the phase.
    """
    q, r1, r2 = _geometry(q, r1, r2)
    if q.shape != (3,):
        raise ValueError(f"q must be a 3-vector, got shape {q.shape}")
    return float(_finite(scattering_phases(q[None], r1[None], r2[None])[0], "q . (r1 - r2)"))


def scattering_phases(q: np.ndarray, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Row-wise phases q . (r1 - r2) over (n, 3) arrays, without validation.

    The one phase formula: `scattering_phase` is this on one checked row,
    and a row's phase does not depend on the other rows. Non-finite inputs
    give non-finite phases for the caller to reject.
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


def _site_sums(q: np.ndarray, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Site-sum operators U_a = S_1^a e^{i q.r1} + S_2^a e^{i q.r2}.

    `q` has shape (..., 3) and `r1`, `r2` are 3-vectors; the result has
    shape (..., 3, 4, 4), axis -3 running over a = x, y, z.
    """
    q, r1, r2 = _geometry(q, r1, r2)
    # (..., 1, 3) @ (3, 1): each q.r goes through the dot kernel of np.dot.
    rows = q[..., None, :]
    phase1 = np.exp(1j * (rows @ r1[:, None]))[..., None, :]
    phase2 = np.exp(1j * (rows @ r2[:, None]))[..., None, :]
    return phase1 * SPIN_SITE_1 + phase2 * SPIN_SITE_2


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
    eigenstates whose energy differs from the initial one by more than the
    level tolerance `eigensys.atol` (elastic terms drop out). For the
    singlet this reduces to delta_ab times the scalar structure factor.

    `initial` is one finite, normalized 4-component state inside one energy
    level (an eigenstate, or a superposition of degenerate ones: its energy
    spread must be within `eigensys.atol`), and `r1`,
    `r2` are 3-vectors. `q` has shape (3,), giving one tensor of shape
    (3, 3), or (..., 3) for a stack of wave vectors, giving shape
    (..., 3, 3). Every product is a matmul over the trailing axes, so each
    tensor of a stack equals the call on its own `q` bit for bit.
    """
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (4,):
        raise ValueError("initial must be a 4-component state vector")
    # Checked first: the norm and energy checks are comparisons, which NaN passes.
    if not np.isfinite(initial).all():
        raise ValueError("initial must be finite")
    if abs(np.linalg.norm(initial) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    ops = _site_sums(q, r1, r2)

    energies = eigensys.energies
    weights = np.abs(eigensys.states.conj().T @ initial) ** 2
    e_initial = float(np.sum(weights * energies))
    if np.sum(weights * (energies - e_initial) ** 2) > eigensys.atol**2:
        raise ValueError("initial state must lie in one energy level of the hamiltonian")
    final = np.abs(energies - e_initial) > eigensys.atol

    # amplitudes[..., a, f] = <f|U_a|i> for the selected final states
    amplitudes = (eigensys.states[:, final].conj().T @ (ops @ initial)[..., None])[..., 0]
    return amplitudes.conj() @ amplitudes.swapaxes(-1, -2)


def integrated_structure_factor(
    rho: np.ndarray,
    q: np.ndarray,
    r1: np.ndarray,
    r2: np.ndarray,
) -> complex | np.ndarray:
    """Energy-integrated double site sum of same-axis spin correlators.

    Evaluates sum_a sum_{l,m} e^{i q.(r_l - r_m)} <S_l^a S_m^a>, which is
    sum_a tr(rho U_a U_a^dag), as explicit traces of site operators.
    Cross-axis terms are omitted: they vanish identically for dimer
    eigenstates and thermal states (the oracle asserts this).

    `rho` has shape (4, 4) or (..., 4, 4), `q` shape (3,) or (..., 3), and
    `r1`, `r2` are 3-vectors; the leading shapes of `rho` and `q`
    broadcast. One state at one wave vector gives a
    Python complex, otherwise an array of the broadcast leading shape whose
    entries equal the per-item calls bit for bit.
    """
    rho = require_density_matrix(rho)
    ops = _site_sums(q, r1, r2)
    intensity = (ops @ ops.conj().swapaxes(-1, -2)).sum(axis=-3)
    values = np.trace(rho @ intensity, axis1=-2, axis2=-1)
    return values if values.ndim else complex(values)
