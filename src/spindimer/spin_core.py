"""Exact quantum mechanics of the two-site spin-1/2 exchange dimer.

Operators act on the 4-dimensional product basis |00>, |01>, |10>, |11>,
with |0> the m = +1/2 state. Natural units throughout: hbar = k_B = 1, so
energies and temperatures carry the unit of the exchange coupling J, which
may take any finite value.
"""

from __future__ import annotations

import math
import sys
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
# Each Pauli product has one nonzero entry per row: row b of
# PAULI_PRODUCTS[i, j] holds _PAULI_ENTRY[i, j, b] in column _PAULI_COLUMN[i, j, b].
_PAULI_COLUMN = np.argmax(PAULI_PRODUCTS != 0, axis=-1)
_PAULI_ENTRY = np.take_along_axis(PAULI_PRODUCTS, _PAULI_COLUMN[..., None], axis=-1)[..., 0]

# Spin-1/2 site operators S = sigma/2 embedded on each site.
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
# How far above EIGENVALUE_FLOOR the Cholesky certificate of
# `require_density_matrix` sets its shift: about 450 ulps of 1, above the
# backward error of a Cholesky factorization (and of `eigvalsh`) on a
# unit-trace 4x4 matrix. With no margin, states whose `eigvalsh` minimum lay
# up to 4e-16 below the floor were certified.
_CERTIFICATE_MARGIN = 1e-13


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


def _reject_entries(bad: np.ndarray, name: str, problem: str) -> None:
    """`_reject_first` on the matrices (..., 4, 4) of `bad` that have a set
    entry; the flat test runs first, and the per-matrix one only if it fails."""
    if bad.any():
        _reject_first(bad.any(axis=(-2, -1)), name, problem)


def require_hermitian(op: np.ndarray, name: str = "operator") -> np.ndarray:
    """Validate a finite 4x4 Hermitian matrix, or a stack of them of shape (..., 4, 4)."""
    op = np.asarray(op, dtype=complex)
    if op.shape[-2:] != (4, 4):
        raise ValueError(f"{name} must be a 4x4 matrix, got shape {op.shape}")
    # Checked first: every later check is a comparison, which NaN passes.
    _reject_entries(~np.isfinite(op), name, "has a non-finite entry")
    _reject_entries(np.abs(op - op.conj().swapaxes(-1, -2)) > HERMITICITY_ATOL, name,
                    f"is not Hermitian within {HERMITICITY_ATOL:g}")
    return op


def require_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Validate a two-qubit density matrix, or a stack of them of shape
    (..., 4, 4): Hermitian, unit trace, no eigenvalue below EIGENVALUE_FLOOR.

    Positivity is certified by one Cholesky factorization of the stack
    rho - (EIGENVALUE_FLOOR + _CERTIFICATE_MARGIN) I. It succeeds only if
    every state's smallest eigenvalue lies above that shift, to within a
    backward error far below the margin, so it never passes a state whose
    `eigvalsh` minimum is below the floor. Only when it fails does
    `eigvalsh` run; that test alone decides, and names the first state
    below the floor, so a state between the floor and the shift still passes.
    """
    rho = require_hermitian(rho, name=name)
    trace = np.trace(rho, axis1=-2, axis2=-1)
    _reject_first((np.abs(trace.real - 1.0) > TRACE_ATOL) | (np.abs(trace.imag) > TRACE_ATOL), name,
                  "does not have unit trace")
    try:
        np.linalg.cholesky(rho - (EIGENVALUE_FLOOR + _CERTIFICATE_MARGIN) * _E)
    except np.linalg.LinAlgError:
        _reject_first(np.linalg.eigvalsh(rho).min(axis=-1) < EIGENVALUE_FLOOR, name,
                      f"has a negative eigenvalue below {EIGENVALUE_FLOOR:g}")
    return rho


@dataclass(frozen=True)
class DimerModel:
    """Physical configuration of the dimer.

    coupling is the exchange constant J, any finite value; positive J puts
    the singlet at the bottom of the spectrum. g is the Lande factor; g^2 is
    a finite normal float (sys.float_info.min <= g^2 < inf), so the
    susceptibility's g^2 neither overflows nor vanishes nor loses digits as
    a subnormal. The Bohr magneton is 1 in natural units. The ion count and
    spin are fixed by the model and not configurable. The site positions
    are not part of the model: they enter only through the scattering phase
    (`scattering.scattering_phase`).
    """

    coupling: float = 1.0
    g: float = 2.0

    n_ions: ClassVar[int] = 2
    spin: ClassVar[float] = 0.5

    def __post_init__(self):
        if not math.isfinite(self.coupling):
            raise ValueError("coupling must be finite")
        if not sys.float_info.min <= self.g * self.g < math.inf:  # NaN fails this comparison too
            raise ValueError(f"g**2 must be finite and at least the smallest normal float, {sys.float_info.min!r}")


def build_hamiltonian(model: DimerModel) -> np.ndarray:
    """Exchange Hamiltonian of the dimer in the product basis.

    Sign convention: the triplet sits at +J/4 and the singlet at -3J/4, so
    positive coupling favors the entangled singlet ground state.
    """
    j = model.coupling
    return (j / 4.0) * (PAULI_PRODUCTS[1, 1] + PAULI_PRODUCTS[2, 2] + PAULI_PRODUCTS[3, 3])


@dataclass(frozen=True)
class EigenSystem:
    """Spectrum of a dimer Hamiltonian.

    Column k of `states` is the eigenvector for `energies[k]`; `labels[k]`
    is its (s, m_s) pair. Energies ascend, ties broken by m_s descending.
    `atol` is the level tolerance, 1e-9 times the Hamiltonian's largest
    |entry|: energies within it of each other form one level. `eigensystem`
    alone sets it, and `thermal_state` and `exclusive_structure_factor` read
    it, so they never disagree on which states are degenerate.
    """

    energies: np.ndarray
    states: np.ndarray
    labels: tuple[tuple[int, int], ...]
    atol: float


_COUPLED_LABELS = ((1, 1), (1, 0), (1, -1), (0, 0))
_COUPLED_KETS = np.column_stack((TRIPLET_PLUS, TRIPLET_ZERO, TRIPLET_MINUS, SINGLET))


def eigensystem(hamiltonian: np.ndarray) -> EigenSystem:
    """Diagonalize a dimer Hamiltonian analytically in the coupled basis.

    The matrix must be block-diagonal in the product basis with a symmetric
    2x2 central block, which makes the singlet/triplet kets exact
    eigenvectors; a coupled ket whose residual |H k - E k| exceeds the
    level tolerance (`EigenSystem.atol`, 1e-9 times the largest |entry| of
    H, with no absolute floor, so it scales with any coupling) is rejected.
    No iterative solver is used, so energies of exact inputs come out exact.
    """
    h = require_hermitian(hamiltonian, name="hamiltonian")
    if h.ndim != 2:
        raise ValueError(f"hamiltonian must be one 4x4 matrix, got shape {h.shape}")
    atol = 1e-9 * float(np.max(np.abs(h)))

    # Analytic eigenvalues: the diagonal corners, and d +/- o for the
    # central block [[d, o], [o, d]].
    d = 0.5 * (h[1, 1].real + h[2, 2].real)
    o = h[1, 2].real
    energies = np.array([h[0, 0].real, d + o, h[3, 3].real, d - o])

    residuals = np.abs(h @ _COUPLED_KETS - _COUPLED_KETS * energies).max(axis=0)
    for label, residual in zip(_COUPLED_LABELS, residuals):
        if residual > atol:
            raise ValueError(
                "hamiltonian is not diagonal in the singlet-triplet basis "
                f"(residual {residual:.3e} for (s, m_s) = {label})"
            )

    order = sorted(range(4), key=lambda k: (energies[k], -_COUPLED_LABELS[k][1], -_COUPLED_LABELS[k][0]))
    return EigenSystem(
        energies=energies[order],
        states=_COUPLED_KETS[:, order],
        labels=tuple(_COUPLED_LABELS[k] for k in order),
        atol=atol,
    )


def thermal_state(model: DimerModel, temperature: float) -> np.ndarray:
    """Gibbs state exp(-H/T)/Z of the dimer at temperature T (k_B = 1).

    A level whose gap to the ground energy is within the level tolerance
    `EigenSystem.atol` is the ground level and gets weight 1; every other
    level gets exp(-gap/T). At T = 0, or at a T so small that gap/T
    overflows, that is exp(-inf) = 0, so the state is the projector onto the
    ground level normalized over its degeneracy, the exact T -> 0 limit;
    T = inf gives the maximally mixed state. A negative or NaN temperature
    is rejected.
    """
    if not temperature >= 0.0:  # NaN fails this comparison too
        raise ValueError(f"temperature must be nonnegative, got {temperature}")
    eig = eigensystem(build_hamiltonian(model))
    gaps = eig.energies - eig.energies[0]
    # At T = 0 a ground-level gap gives 0/0 = NaN, which np.where discards.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        weights = np.where(gaps <= eig.atol, 1.0, np.exp(-gaps / temperature))
    weights /= weights.sum()
    return (eig.states * weights) @ eig.states.conj().T


def fano_decompose(rho: np.ndarray) -> np.ndarray:
    """Pauli coefficients R[..., i, j] = tr(rho sigma_i (x) sigma_j), with
    sigma_0 = I, of a valid density matrix, or of each matrix of a stack
    (..., 4, 4).

    R[..., 1:, 0] and R[..., 0, 1:] are the Bloch vectors of sites 1 and 2,
    R[..., 1:, 1:] is the correlation tensor and R[..., 0, 0] is the trace, 1.
    """
    rho = require_density_matrix(rho)
    # Term b is (P rho)[b, b] for P = sigma_i (x) sigma_j: the one nonzero
    # product of row b of P with column b of rho, gathered rather than summed
    # with zeros. The terms are added pairwise, as numpy sums the four
    # diagonal entries of a trace, and (rho P)[b, b] is the conjugate of
    # (P rho)[b, b] for Hermitian rho and P, so the values match
    # np.trace(rho @ P).real bit for bit.
    t = _PAULI_ENTRY * rho[..., _PAULI_COLUMN, np.arange(4)]
    return ((t[..., 0] + t[..., 1]) + (t[..., 2] + t[..., 3])).real


def fano_reconstruct(coeffs: np.ndarray) -> np.ndarray:
    """The matrix sum_ij R[..., i, j] sigma_i (x) sigma_j / 4 of Pauli
    coefficients R (..., 4, 4): the inverse of `fano_decompose`."""
    # R is cast to complex first: a real-by-complex einsum takes numpy's slower
    # mixed-dtype path, with the same values.
    return np.einsum("...ij,ijab->...ab", np.asarray(coeffs, dtype=complex), PAULI_PRODUCTS) / 4.0


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
    coeffs = np.zeros(c.shape[:-1] + (4, 4))
    coeffs[..., 0, 0] = 1.0
    coeffs[..., [1, 2, 3], [1, 2, 3]] = c
    return require_density_matrix(fano_reconstruct(coeffs), name="bell-diagonal state")
