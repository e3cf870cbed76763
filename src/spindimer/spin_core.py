"""Exact quantum mechanics of the two-site spin-1/2 exchange dimer.

Operators act on the 4-dimensional product basis |00>, |01>, |10>, |11>,
with |0> the m = +1/2 state. Natural units throughout: hbar = k_B = 1;
energies are in units of the exchange coupling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# All sixteen two-site Pauli products: PAULI_PRODUCTS[i, j] = sigma_i (x) sigma_j
# with sigma_0 = I. They are an orthogonal basis of the 4x4 matrices with
# tr(PAULI_PRODUCTS[i, j] PAULI_PRODUCTS[k, l]) = 4 delta_ik delta_jl.
_PAULI_WITH_IDENTITY = (IDENTITY_2,) + PAULI
PAULI_PRODUCTS = np.array([[np.kron(s, t) for t in _PAULI_WITH_IDENTITY] for s in _PAULI_WITH_IDENTITY])

# Same-axis two-site Pauli products sigma_a (x) sigma_a, and spin-1/2 site
# operators S = sigma/2 embedded on each site.
SIGMA_SIGMA = PAULI_PRODUCTS[[1, 2, 3], [1, 2, 3]]
SPIN_SITE_1 = np.array([np.kron(0.5 * s, IDENTITY_2) for s in PAULI])
SPIN_SITE_2 = np.array([np.kron(IDENTITY_2, 0.5 * s) for s in PAULI])
TOTAL_SZ = SPIN_SITE_1[2] + SPIN_SITE_2[2]

_E = np.eye(4, dtype=complex)
TRIPLET_PLUS = _E[:, 0].copy()                        # |00>, (s, m) = (1, +1)
TRIPLET_ZERO = (_E[:, 1] + _E[:, 2]) / np.sqrt(2.0)   # (1, 0)
TRIPLET_MINUS = _E[:, 3].copy()                       # |11>, (1, -1)
SINGLET = (_E[:, 1] - _E[:, 2]) / np.sqrt(2.0)        # (0, 0)

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| for a (not necessarily normalized) ket."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def _reject_first(bad: np.ndarray, name: str, problem: str) -> None:
    """Raise `name problem` if any entry of `bad` is set; on a stack, name
    the index of the first bad matrix."""
    if bad.any():
        if bad.ndim:
            name += f"[{', '.join(map(str, np.unravel_index(np.argmax(bad), bad.shape)))}]"
        raise ValueError(f"{name} {problem}")


def require_hermitian(op: np.ndarray, name: str = "operator") -> np.ndarray:
    """Validate a finite 4x4 Hermitian matrix, or a stack of them of shape (..., 4, 4)."""
    op = np.asarray(op, dtype=complex)
    if op.shape[-2:] != (4, 4):
        raise ValueError(f"{name} must be a 4x4 matrix, got shape {op.shape}")
    # Checked first: every later check is a comparison, which NaN passes.
    _reject_first(~np.isfinite(op).all(axis=(-2, -1)), name, "has a non-finite entry")
    _reject_first(np.abs(op - op.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) > HERMITICITY_ATOL, name,
                  f"is not Hermitian within {HERMITICITY_ATOL:g}")
    return op


def require_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Validate a two-qubit density matrix, or a stack of them of shape
    (..., 4, 4): Hermitian, unit trace, positive."""
    rho = require_hermitian(rho, name=name)
    trace = np.trace(rho, axis1=-2, axis2=-1)
    _reject_first((np.abs(trace.real - 1.0) > TRACE_ATOL) | (np.abs(trace.imag) > TRACE_ATOL), name,
                  "does not have unit trace")
    _reject_first(np.linalg.eigvalsh(rho).min(axis=-1) < EIGENVALUE_FLOOR, name,
                  f"has a negative eigenvalue below {EIGENVALUE_FLOOR:g}")
    return rho


@dataclass(frozen=True)
class DimerModel:
    """Physical configuration of the dimer.

    coupling is the exchange constant J; positive J puts the singlet at the
    bottom of the spectrum. g is the Lande factor; the Bohr magneton is 1 in
    natural units. The ion count and spin are fixed by the model and not
    configurable. The site positions are not part of the model: they enter
    only through the scattering phase (`scattering.scattering_phase`).
    """

    coupling: float = 1.0
    g: float = 2.0

    n_ions: ClassVar[int] = 2
    spin: ClassVar[float] = 0.5


def build_hamiltonian(model: DimerModel) -> np.ndarray:
    """Exchange Hamiltonian of the dimer in the product basis.

    Sign convention: the triplet sits at +J/4 and the singlet at -3J/4, so
    positive coupling favors the entangled singlet ground state.
    """
    j = model.coupling
    return (j / 4.0) * (SIGMA_SIGMA[0] + SIGMA_SIGMA[1] + SIGMA_SIGMA[2])


@dataclass(frozen=True)
class EigenSystem:
    """Spectrum of a dimer Hamiltonian.

    Column k of `states` is the eigenvector for `energies[k]`; `labels[k]`
    is its (s, m_s) pair. Energies ascend, ties broken by m_s descending.
    """

    energies: np.ndarray
    states: np.ndarray
    labels: tuple[tuple[int, int], ...]


_COUPLED_LABELS = ((1, 1), (1, 0), (1, -1), (0, 0))
_COUPLED_STATES = (TRIPLET_PLUS, TRIPLET_ZERO, TRIPLET_MINUS, SINGLET)


def eigensystem(hamiltonian: np.ndarray) -> EigenSystem:
    """Diagonalize a dimer Hamiltonian analytically in the coupled basis.

    The matrix must be block-diagonal in the product basis with a symmetric
    2x2 central block, which makes the singlet/triplet kets exact
    eigenvectors; anything else is rejected. No iterative solver is used,
    so energies of exact inputs come out exact.
    """
    h = require_hermitian(hamiltonian, name="hamiltonian")
    scale = max(1.0, float(np.max(np.abs(h))))
    atol = 1e-9 * scale

    # Analytic eigenvalues: the diagonal corners, and d +/- o for the
    # central block [[d, o], [o, d]].
    d = 0.5 * (h[1, 1].real + h[2, 2].real)
    o = h[1, 2].real
    energies = (h[0, 0].real, d + o, h[3, 3].real, d - o)

    entries = []
    for label, state, energy in zip(_COUPLED_LABELS, _COUPLED_STATES, energies):
        residual = np.max(np.abs(h @ state - energy * state))
        if residual > atol:
            raise ValueError(
                "hamiltonian is not diagonal in the singlet-triplet basis "
                f"(residual {residual:.3e} for (s, m_s) = {label})"
            )
        entries.append((energy, label, state))

    entries.sort(key=lambda e: (e[0], -e[1][1], -e[1][0]))
    return EigenSystem(
        energies=np.array([e[0] for e in entries]),
        states=np.column_stack([e[2] for e in entries]),
        labels=tuple(e[1] for e in entries),
    )


def thermal_state(model: DimerModel, temperature: float) -> np.ndarray:
    """Gibbs state exp(-H/T)/Z of the dimer at temperature T (k_B = 1).

    T = 0 returns the projector onto the ground manifold, normalized over
    its degeneracy, rather than taking a numerical limit; T = inf returns
    the maximally mixed state. A negative or NaN temperature is rejected.
    """
    if not temperature >= 0.0:  # NaN fails this comparison too
        raise ValueError(f"temperature must be nonnegative, got {temperature}")
    eig = eigensystem(build_hamiltonian(model))
    energies = eig.energies
    if temperature == 0.0:
        gap_atol = 1e-12 * max(1.0, abs(model.coupling))
        weights = (energies - energies[0] <= gap_atol).astype(float)
    else:
        weights = np.exp(-(energies - energies[0]) / temperature)
    weights /= weights.sum()
    return (eig.states * weights) @ eig.states.conj().T


@dataclass(frozen=True)
class FanoVector:
    """Pauli decomposition of a two-qubit state, or of a stack of states.

    `a` and `b` are the local Bloch vectors and `tensor` the full 3x3
    correlation tensor <sigma_i (x) sigma_j>. For a stack of shape
    (..., 4, 4) every field carries the leading shape.
    """

    a: np.ndarray
    b: np.ndarray
    tensor: np.ndarray


def fano_decompose(rho: np.ndarray) -> FanoVector:
    """Bloch vectors and correlation tensor of a valid density matrix, or
    of each matrix of a stack (..., 4, 4)."""
    rho = require_density_matrix(rho)
    # coeffs[..., i, j] = tr(rho sigma_i (x) sigma_j), sigma_0 = I. Each Pauli
    # product has one nonzero entry per row, so the inner sum is exact, and
    # the outer sum runs in index order like a matrix trace: the values
    # match np.trace(rho @ np.kron(sigma_i, sigma_j)) bit for bit.
    coeffs = np.einsum("ijab,...ba->...ija", PAULI_PRODUCTS, rho).sum(axis=-1).real
    return FanoVector(a=coeffs[..., 1:, 0], b=coeffs[..., 0, 1:], tensor=coeffs[..., 1:, 1:])


def fano_reconstruct(fano: FanoVector) -> np.ndarray:
    """Rebuild the density matrix, or the stack of them, from its Pauli
    decomposition (exact for any state, since the full correlation tensor
    is kept)."""
    coeffs = np.empty(fano.tensor.shape[:-2] + (4, 4))
    coeffs[..., 0, 0] = 1.0
    coeffs[..., 1:, 0] = fano.a
    coeffs[..., 0, 1:] = fano.b
    coeffs[..., 1:, 1:] = fano.tensor
    return np.einsum("...ij,ijab->...ab", coeffs, PAULI_PRODUCTS) / 4.0


def bell_diagonal_state(c: np.ndarray) -> np.ndarray:
    """Two-qubit state with zero Bloch vectors and diagonal correlations c.

    c has shape (3,), or (..., 3) for a stack of states. Raises if c falls
    outside the Bell-state tetrahedron of physical states. The isotropic
    case c = (w, w, w) is the state family whose same-axis correlators all
    equal w; it is valid for -1 <= w <= 1/3.
    """
    c = np.asarray(c, dtype=float)
    if c.shape[-1:] != (3,):
        raise ValueError("c must be a 3-vector")
    rho = PAULI_PRODUCTS[0, 0]
    for k, ss in enumerate(SIGMA_SIGMA):
        rho = rho + c[..., k, None, None] * ss
    return require_density_matrix(rho / 4.0, name="bell-diagonal state")
