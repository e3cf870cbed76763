"""Brute-force quantifiers computed from explicit 4x4 density matrices.

Nothing here goes through the closed forms in `quantifiers`; these
routines exist to validate them (and, where the published formulas
disagree with each other, to adjudicate). The oracles (Wootters, both
CHSH modes, the CHSH angle search and both discord methods) take one state
of shape (4, 4) and return a float, or a stack of shape (..., 4, 4) and
return an array of the leading shape; both go through the same code.
"""

from __future__ import annotations

import numpy as np

from .spin_core import (
    PAULI_PRODUCTS,
    SINGLET,
    TRIPLET_MINUS,
    TRIPLET_PLUS,
    TRIPLET_ZERO,
    _reject_first,
    fano_decompose,
    projector,
    require_density_matrix,
)

# Settings of `_sphere_search` and of the coarse grids it refines: grid
# sizes (points per hemisphere), the number of best grid points refined, the
# number of compass directions, the initial and final steps (radians), the
# sufficient-decrease factor and a cap on search rounds.
_DISCORD_GRID = 256
_CHSH_GRID = 64
_STARTS = 3
_COMPASS = 6
_STEP = 0.1
_TOL = 1e-11
_GAIN = 1e-3
_MAX_ROUNDS = 2000
_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
# Largest cross-axis correlator `correlation_oracle` lets through.
_CROSS_ATOL = 1e-12
# Largest Bloch-vector entry or off-diagonal correlator of a Bell-diagonal state.
_BELL_DIAGONAL_ATOL = 1e-10

SPIN_FLIP = PAULI_PRODUCTS[2, 2]  # Y (x) Y
CHSH_FIXED_OPERATOR = np.sqrt(2.0) * (PAULI_PRODUCTS[1, 1] + PAULI_PRODUCTS[3, 3])  # sqrt(2) (XX + ZZ)

BELL_STATES = (
    (TRIPLET_PLUS + TRIPLET_MINUS) / np.sqrt(2.0),  # Phi+
    (TRIPLET_PLUS - TRIPLET_MINUS) / np.sqrt(2.0),  # Phi-
    TRIPLET_ZERO,                                   # Psi+
    SINGLET,                                        # Psi-
)


def _per_state(values: np.ndarray) -> float | np.ndarray:
    """A float for one state, the array of values for a stack."""
    return values if values.ndim else float(values)


def wootters_concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Concurrence from the spin-flip construction.

    max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of the
    eigenvalues of rho (Y x Y) rho* (Y x Y); conjugation is taken in the
    computational basis.
    """
    rho = require_density_matrix(rho)
    rho_tilde = SPIN_FLIP @ rho.conj() @ SPIN_FLIP
    eigs = np.linalg.eigvals(rho @ rho_tilde)
    lam = np.sort(np.sqrt(np.clip(np.real(eigs), 0.0, None)), axis=-1)
    return _per_state(np.maximum(0.0, lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0]))


def correlation_oracle(rho: np.ndarray) -> np.ndarray:
    """Same-axis Pauli correlators (<xx>, <yy>, <zz>) as direct traces.

    Also asserts that the cross-axis correlators vanish, which holds for
    every dimer eigenstate and thermal state; states that mix axes are
    rejected so they cannot silently masquerade as dimer output.
    """
    tensor = fano_decompose(rho).tensor
    off = tensor - np.diag(np.diag(tensor))
    worst = float(np.max(np.abs(off)))
    if worst > _CROSS_ATOL:
        raise ValueError(f"cross-axis correlators do not vanish (max {worst:.3e})")
    return np.diag(tensor).copy()


def chsh_max(rho: np.ndarray, mode: str = "optimized") -> float | np.ndarray:
    """CHSH expectation magnitude for a two-qubit state.

    mode "fixed" evaluates |tr(rho sqrt(2)(XX + ZZ))|, the standard
    diagonal direction set. mode "optimized" maximizes over all four
    measurement directions via the Horodecki criterion,
    2 sqrt(m1 + m2) with m1, m2 the two largest eigenvalues of T^T T.
    """
    if mode == "fixed":
        rho = require_density_matrix(rho)
        return _per_state(np.abs(np.trace(rho @ CHSH_FIXED_OPERATOR, axis1=-2, axis2=-1).real))
    if mode == "optimized":
        t = fano_decompose(rho).tensor
        m = np.linalg.eigvalsh(t.swapaxes(-1, -2) @ t)
        return _per_state(2.0 * np.sqrt(m[..., -1] + m[..., -2]))
    raise ValueError(f"unknown CHSH mode {mode!r}; expected 'fixed' or 'optimized'")


def chsh_direct_search(rho: np.ndarray) -> float | np.ndarray:
    """CHSH maximum by numerical search over measurement directions.

    For fixed directions b, b' on side 2, the optimal side-1 directions
    align with T(b - b') and T(b + b'), so the search runs over the two
    spheres of b and b' (coarse grid, then `_sphere_search`). Flipping b
    or b' leaves the value unchanged, so the grid covers one hemisphere
    for each. Cross-checks the Horodecki value without touching its
    T^T T eigenvalue algebra.
    """
    tensor = fano_decompose(rho).tensor
    shape = tensor.shape[:-2]
    transposed = tensor.reshape(-1, 3, 3).swapaxes(-1, -2)

    def negative_chsh(pairs, states):
        b, bp = pairs[..., 0, :], pairs[..., 1, :]
        t = transposed[states]
        return -(np.linalg.norm((b - bp) @ t, axis=-1) + np.linalg.norm((b + bp) @ t, axis=-1))

    grid = _hemisphere(_CHSH_GRID)
    pairs = np.stack(np.broadcast_arrays(grid[:, None], grid[None, :]), axis=-2).reshape(-1, 2, 3)
    return _per_state(-_sphere_search(negative_chsh, pairs, len(transposed)).reshape(shape))


def _bell_diagonal_correlations(rho: np.ndarray) -> np.ndarray:
    """Diagonal (c1, c2, c3) of the correlation tensor of a Bell-diagonal
    state, or of each state of a stack."""
    fano = fano_decompose(rho)
    local = np.maximum(np.abs(fano.a).max(axis=-1), np.abs(fano.b).max(axis=-1))
    off = np.abs(fano.tensor * (1.0 - np.eye(3))).max(axis=(-2, -1))
    _reject_first((local > _BELL_DIAGONAL_ATOL) | (off > _BELL_DIAGONAL_ATOL), "state",
                  "is not Bell-diagonal (nonzero Bloch vectors or off-diagonal correlations)")
    return np.diagonal(fano.tensor, axis1=-2, axis2=-1)


def trace_norm_discord(rho: np.ndarray, method: str = "numerical_min") -> float | np.ndarray:
    """Geometric discord as the minimal trace-norm disturbance under a
    projective measurement on subsystem 1.

    "closed_form_bell_diagonal" requires a Bell-diagonal input and returns
    the middle value of {|c1|, |c2|, |c3|}. "numerical_min" minimizes
    ||rho - dephase(rho)||_1 over the measurement direction n. At each
    direction the trace norm of the residual is taken in closed form from
    the Bloch vector and correlation tensor (`_residual_trace_norm`); the
    search over directions is numerical: a coarse grid on one hemisphere
    (n and -n give the same measurement) refined by `_sphere_search`. It
    works for any state and agrees with the closed form on Bell-diagonal
    ones. No normalization factor is applied: this is the raw minimized
    trace norm.
    """
    if method == "closed_form_bell_diagonal":
        c = _bell_diagonal_correlations(rho)
        return _per_state(np.sort(np.abs(c), axis=-1)[..., 1])
    if method != "numerical_min":
        raise ValueError(
            f"unknown discord method {method!r}; expected 'closed_form_bell_diagonal' or 'numerical_min'"
        )
    fano = fano_decompose(rho)
    a, tensor = fano.a.reshape(-1, 3), fano.tensor.reshape(-1, 3, 3)

    def residual_norm(directions, states):
        return _residual_trace_norm(a[states], tensor[states], directions[..., 0, :])

    found = _sphere_search(residual_norm, _hemisphere(_DISCORD_GRID)[:, None, :], len(a))
    return _per_state(found.reshape(fano.a.shape[:-1]))


def _residual_trace_norm(a: np.ndarray, tensor: np.ndarray, n: np.ndarray) -> np.ndarray:
    """||rho - dephase(rho)||_1 for the subsystem-1 measurement along unit
    vectors n, from the Bloch vector a and correlation tensor T of rho.

    In the eigenbasis of n.sigma on spin 1 the residual keeps only the two
    off-diagonal blocks, each (1/4) B with B = p I + q.sigma, p = z.a and
    q = z^T T for z = e1 - i e2 built from a frame (e1, e2) orthogonal to n.
    The trace norm is twice B's nuclear norm over 4, and for a 2x2 matrix
    that norm is sqrt(||B||_F^2 + 2 |det B|); every term under the root is
    non-negative, so near-degenerate states lose nothing to cancellation.
    Turning the frame about n changes z by a phase only, which leaves the
    value unchanged.
    For states of leading shape L (L = () for one state), a has shape
    L + (3,), T L + (3, 3) and n L + (q, 3), q directions per state; the
    result has shape L + (q,).
    """
    e1, e2 = _tangent_frame(n)
    z = e1 - 1j * e2
    p = np.sum(z * a[..., None, :], axis=-1)
    q = z @ tensor
    half_frobenius = np.abs(p) ** 2 + np.sum(np.abs(q) ** 2, axis=-1)  # ||B||_F^2 / 2
    det = p * p - np.sum(q * q, axis=-1)
    return np.sqrt((half_frobenius + np.abs(det)) / 2.0)


def _hemisphere(count: int) -> np.ndarray:
    """`count` evenly spread unit vectors with z > 0 (a Fibonacci spiral)."""
    k = np.arange(count) + 0.5
    z = k / count
    phi = _GOLDEN_ANGLE * k
    r = np.sqrt(1.0 - z**2)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


def _tangent_frame(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors orthogonal to each other and to each unit vector u.

    Branch-free construction of Duff et al., JCGT 6(1), 1 (2017): smooth
    everywhere except across the plane z = 0, and defined at both poles.
    """
    x, y, z = u[..., 0], u[..., 1], u[..., 2]
    sign = np.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    e1 = np.stack([1.0 + sign * x * x * a, sign * b, -sign * x], axis=-1)
    e2 = np.stack([b, sign + y * y * a, -y], axis=-1)
    return e1, e2


def _sphere_search(objective, grid: np.ndarray, count: int) -> np.ndarray:
    """Minimum of `objective` over a product of unit spheres, by compass
    search, for each of `count` states.

    `grid` holds coarse points of shape (g, m, 3), m unit vectors each;
    `objective(points, states)` maps points of shape (k, ..., m, 3), of the
    states with indices `states` (shape (k,)), to values of shape (k, ...).
    The grid is evaluated one state at a time, and the _STARTS best grid
    points of each state are refined, those of all states as one batch. In
    every round each point polls _COMPASS * m neighbours: one of its
    vectors turned by the point's step towards one of _COMPASS evenly
    spaced directions in the tangent plane at that vector. The compass
    turns by the golden angle each round, so over the rounds the polled
    directions cover the tangent plane. The point moves to the best
    neighbour if that lowers its value by more than _GAIN * step^2, and
    halves its step only when none does; the margin stops a point from
    creeping along a valley on gains that vanish faster than its step. A
    point's path depends on its own state only. For each state, the lowest
    value reached once every step is below _TOL is returned.
    """
    coarse = np.empty((count, len(grid)))
    for state in range(count):
        coarse[state] = objective(grid[None], [state])[0]
    starts = np.argsort(coarse, axis=-1)[:, :_STARTS]
    owner = np.repeat(np.arange(count), starts.shape[1])
    x, value = grid[starts.ravel()], np.take_along_axis(coarse, starts, axis=-1).ravel()
    batch, m = x.shape[:2]
    steps = np.full(batch, _STEP)
    compass = np.exp(2j * np.pi * np.arange(_COMPASS) / _COMPASS)[:, None, None]
    replaced = np.eye(m, dtype=bool)[:, :, None]  # [moved sphere, sphere, xyz]
    for r in range(_MAX_ROUNDS):
        active = np.nonzero(steps > _TOL)[0]
        if active.size == 0:
            break
        u = x[active]
        e1, e2 = _tangent_frame(u)
        turn = compass * np.exp(1j * _GOLDEN_ANGLE * r)
        tangent = turn.real * e1[:, None] + turn.imag * e2[:, None]
        h = steps[active, None, None, None]
        turned = np.cos(h) * u[:, None] + np.sin(h) * tangent
        turned /= np.linalg.norm(turned, axis=-1, keepdims=True)
        # Neighbour (direction d, moved sphere s) takes sphere s from `turned`.
        polls = np.where(replaced, turned[:, :, None], u[:, None, None]).reshape(-1, _COMPASS * m, m, 3)
        values = objective(polls, owner[active])
        k = np.argmin(values, axis=1)
        best = values[np.arange(active.size), k]
        better = best < value[active] - _GAIN * steps[active] ** 2
        x[active[better]] = polls[better, k[better]]
        value[active[better]] = best[better]
        steps[active[~better]] *= 0.5
    return value.reshape(count, starts.shape[1]).min(axis=-1)


def werner_state(p) -> np.ndarray:
    """Singlet-weighted mixture p |psi-><psi-| + (1 - p) I/4.

    A scalar p gives one state of shape (4, 4), an array of p a stack of
    shape p.shape + (4, 4), each state equal to the call on its own p; a
    stack with an invalid p is rejected by the index of its state, as in
    `werner state[3] has a negative eigenvalue below -1e-10`.
    """
    p = np.asarray(p, dtype=float)[..., None, None]
    rho = p * projector(SINGLET) + (1.0 - p) * np.eye(4, dtype=complex) / 4.0
    return require_density_matrix(rho, name="werner state")


def random_density_matrix(rng: np.random.Generator, size=None) -> np.ndarray:
    """Full-rank random two-qubit state from the Ginibre construction.

    `size` follows numpy's convention, as in `random_bell_diagonal_state`:
    None draws one state of shape (4, 4), an int or tuple a stack of shape
    size + (4, 4) that equals as many single draws from the same generator,
    in order (each state takes 16 real parts, then 16 imaginary parts).
    """
    shape = () if size is None else tuple(np.atleast_1d(size))
    draws = rng.standard_normal(shape + (2, 4, 4))
    g = draws[..., 0, :, :] + 1j * draws[..., 1, :, :]
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def random_bell_diagonal_state(rng: np.random.Generator, size=None) -> np.ndarray:
    """Random mixture of the four Bell states (uniform on the simplex).

    `size` follows numpy's convention: None draws one state of shape
    (4, 4), an int or tuple a stack of shape size + (4, 4) that equals as
    many single draws from the same generator, in order.
    """
    weights = rng.dirichlet(np.ones(4), size)
    return sum(weights[..., k, None, None] * projector(b) for k, b in enumerate(BELL_STATES))
