"""Brute-force quantifiers computed from explicit 4x4 density matrices.

Nothing here goes through the closed forms in `quantifiers`; these
routines exist to validate them (and, where the published formulas
disagree with each other, to adjudicate). The oracles (Wootters, both
CHSH modes, the CHSH angle search and both discord methods) take one state
of shape (4, 4) and return a float, or a stack of shape (..., 4, 4) and
return an array of the leading shape; `correlation_oracle` returns shape
(..., 3). Each one that reads the Pauli coefficients R calls
`fano_decompose` once and works on slices of R, through the same code for
one state and for a stack.
"""

from __future__ import annotations

import numpy as np

from .spin_core import (
    PAULI_PRODUCTS,
    SINGLET,
    _reject_first,
    bell_diagonal_state,
    fano_decompose,
    projector,
    require_density_matrix,
)

# Settings of `_sphere_search` and of the coarse grids it refines: grid
# sizes (points per hemisphere), the most grid points evaluated per objective
# call, the number of best grid points refined, the number of compass
# directions, the initial and final steps (radians), the sufficient-decrease
# factor, the spread (in ulps of a point's value) within which its polls count
# as flat, and a cap on search rounds.
_DISCORD_GRID = 256
_CHSH_GRID = 64
_GRID_POINTS_PER_CALL = 2048
_STARTS = 3
_COMPASS = 6
_STEP = 0.1
_TOL = 1e-11
_GAIN = 1e-3
_FLAT_ULPS = 4
_MAX_ROUNDS = 2000
_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
# Largest cross-axis correlator `correlation_oracle` lets through.
_CROSS_ATOL = 1e-12
# Largest Bloch-vector entry or off-diagonal correlator of a Bell-diagonal state.
_BELL_DIAGONAL_ATOL = 1e-10
# Correlators (<xx>, <yy>, <zz>) of the Bell states Phi+, Phi-, Psi+, Psi-.
_BELL_CORRELATORS = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]])
# The Minkowski form diag(1, -1, -1, -1) that `_residual_trace_norm` takes det B with.
_MINKOWSKI = np.array([1.0, -1.0, -1.0, -1.0])

SPIN_FLIP = PAULI_PRODUCTS[2, 2]  # Y (x) Y


def _per_state(values: np.ndarray) -> float | np.ndarray:
    """A float for one state, the array of values for a stack."""
    return values if values.ndim else float(values)


def wootters_concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Concurrence from the spin-flip construction.

    max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of the
    eigenvalues of rho (Y x Y) rho* (Y x Y), taken as the singular values of
    sqrt(rho) (Y x Y) sqrt(rho)*; near a pure state, square roots of the
    eigenvalues of the non-Hermitian product would lose half the digits.
    With rho = V D^2 V^H from `eigh` (eigenvalues clipped at 0) that matrix
    is V D [V^H (Y x Y) V*] D V^T, whose singular values are those of the
    middle factor D [...] D. Conjugation is taken in the computational basis.
    """
    w, v = np.linalg.eigh(require_density_matrix(rho))
    d = np.sqrt(np.clip(w, 0.0, None))
    middle = d[..., :, None] * (v.conj().swapaxes(-1, -2) @ SPIN_FLIP @ v.conj()) * d[..., None, :]
    lam = np.linalg.svd(middle, compute_uv=False)
    return _per_state(np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]))


def correlation_oracle(rho: np.ndarray) -> np.ndarray:
    """Same-axis Pauli correlators (<xx>, <yy>, <zz>) as direct traces.

    Also asserts that the cross-axis correlators vanish, which holds for
    every dimer eigenstate and thermal state; states that mix axes are
    rejected so they cannot silently masquerade as dimer output. A stack
    (..., 4, 4) gives shape (..., 3).
    """
    tensor = fano_decompose(rho)[..., 1:, 1:]
    return _diagonal(tensor, _CROSS_ATOL, "rho", f"has cross-axis correlators above {_CROSS_ATOL:g}").copy()


def _diagonal(coeffs: np.ndarray, atol: float, name: str, problem: str) -> np.ndarray:
    """Diagonals (a read-only view) of square matrices (..., n, n) with no
    off-diagonal entry above `atol`; else `name problem`, by `_reject_first`."""
    off = np.abs(coeffs * (1.0 - np.eye(coeffs.shape[-1]))).max(axis=(-2, -1))
    _reject_first(off > atol, name, problem)
    return np.diagonal(coeffs, axis1=-2, axis2=-1)


def chsh_max(rho: np.ndarray, mode: str = "optimized") -> float | np.ndarray:
    """CHSH expectation magnitude for a two-qubit state.

    mode "fixed" evaluates sqrt(2) |<XX> + <ZZ>|, the standard diagonal
    direction set. mode "optimized" maximizes over all four measurement
    directions via the Horodecki criterion, 2 sqrt(m1 + m2) with m1, m2 the
    two largest eigenvalues of T^T T.
    """
    if mode not in ("fixed", "optimized"):
        raise ValueError(f"unknown CHSH mode {mode!r}; expected 'fixed' or 'optimized'")
    coeffs = fano_decompose(rho)
    if mode == "fixed":
        return _per_state(np.sqrt(2.0) * np.abs(coeffs[..., 1, 1] + coeffs[..., 3, 3]))
    t = coeffs[..., 1:, 1:]
    m = np.linalg.eigvalsh(t.swapaxes(-1, -2) @ t)
    return _per_state(2.0 * np.sqrt(m[..., -1] + m[..., -2]))


def chsh_direct_search(rho: np.ndarray) -> float | np.ndarray:
    """CHSH maximum by numerical search over measurement directions.

    For fixed directions b, b' on side 2, the optimal side-1 directions
    align with T(b - b') and T(b + b'), so the search runs over the two
    spheres of b and b' (coarse grid, then `_sphere_search`). Flipping b
    or b' leaves the value unchanged, so the grid covers one hemisphere
    for each. Cross-checks the Horodecki value without touching its
    T^T T eigenvalue algebra.
    """
    def negative_chsh(pairs, transposed):
        b, bp = pairs[..., 0, :], pairs[..., 1, :]
        return -(_norm((b - bp) @ transposed) + _norm((b + bp) @ transposed))

    grid = _hemisphere(_CHSH_GRID)
    pairs = np.stack(np.broadcast_arrays(grid[:, None], grid[None, :]), axis=-2).reshape(-1, 2, 3)
    return _per_state(-_sphere_search(negative_chsh, fano_decompose(rho)[..., 1:, 1:].swapaxes(-1, -2), pairs))


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
    if method not in ("closed_form_bell_diagonal", "numerical_min"):
        raise ValueError(
            f"unknown discord method {method!r}; expected 'closed_form_bell_diagonal' or 'numerical_min'"
        )
    coeffs = fano_decompose(rho)
    if method == "closed_form_bell_diagonal":
        c = _diagonal(coeffs, _BELL_DIAGONAL_ATOL, "state",
                      "is not Bell-diagonal (nonzero Bloch vectors or off-diagonal correlations)")[..., 1:]
        return _per_state(np.sort(np.abs(c), axis=-1)[..., 1])

    def residual_norm(directions, block):
        return _residual_trace_norm(block, directions[..., 0, :])

    return _per_state(_sphere_search(residual_norm, coeffs[..., 1:, :], _hemisphere(_DISCORD_GRID)[:, None, :]))


def _residual_trace_norm(block: np.ndarray, n: np.ndarray) -> np.ndarray:
    """||rho - dephase(rho)||_1 for the subsystem-1 measurement along unit
    vectors n, from the block W = R[..., 1:, :] = [a | T] of rho's Pauli
    coefficients: site 1's Bloch vector a and the correlation tensor T.

    In the eigenbasis of n.sigma on spin 1 the residual keeps only the two
    off-diagonal blocks, each (1/4) B with B = p I + q.sigma, p = z.a and
    q = z^T T for z = e1 - i e2 built from a frame (e1, e2) orthogonal to n.
    With u = e1^T W and v = e2^T W, (p, q) = u - i v, so in real arithmetic
    ||B||_F^2 / 2 = |u|^2 + |v|^2 and det B = p^2 - q.q =
    eta(u, u) - eta(v, v) - 2i eta(u, v), eta = diag(1, -1, -1, -1). The
    trace norm is twice B's nuclear norm over 4, and for a 2x2 matrix that
    norm is sqrt(||B||_F^2 + 2 |det B|); every term under the root is
    non-negative, so near-degenerate states lose nothing to cancellation.
    Turning the frame about n changes z by a phase only, which leaves the
    value unchanged.
    For states of leading shape L (L = () for one state), W has shape
    L + (3, 4) and n L + (q, 3), q directions per state (or any shape that
    broadcasts with it); the result has shape L + (q,).
    """
    e1, e2 = _tangent_frame(n)
    u, v = e1 @ block, e2 @ block
    uu, vv = u * u, v * v
    s = uu + vv
    half_frobenius = s[..., 0] + s[..., 1] + s[..., 2] + s[..., 3]  # left to right, as np.sum adds 4 terms
    det = np.hypot((uu - vv) @ _MINKOWSKI, 2.0 * ((u * v) @ _MINKOWSKI))
    return np.sqrt((half_frobenius + det) / 2.0)


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
    e1, e2 = np.empty_like(u), np.empty_like(u)
    b = np.multiply(x * y, a, out=e2[..., 0])
    np.add(1.0, sign * x * x * a, out=e1[..., 0])
    np.multiply(sign, b, out=e1[..., 1])
    np.multiply(-sign, x, out=e1[..., 2])
    np.add(sign, y * y * a, out=e2[..., 1])
    np.negative(y, out=e2[..., 2])
    return e1, e2


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, of length 3, of v: the squares
    summed left to right, as `np.linalg.norm(v, axis=-1)` sums them, so the
    values are the same bit for bit, without numpy's short-axis reduction."""
    square = v * v
    return np.sqrt(square[..., 0] + square[..., 1] + square[..., 2])


def _sphere_search(objective, data: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Minimum of `objective` over a product of unit spheres, by compass
    search, for each state of a stack.

    `data` holds one matrix per state, of shape L + (r, c) for states of
    leading shape L (L = () for one state); the result has shape L. `grid`
    holds coarse points of shape (g, m, 3), m unit vectors each.
    `objective(points, rows)` scores k states at once: `rows` (k, r, c) are
    their matrices from `data`, `points` (k, q, m, 3), or (1, q, m, 3)
    shared by all k, are q points per state, and value [s, j] of the (k, q)
    result depends on rows[s] and point j of state s only. The grid is
    evaluated for a chunk of states per call, at most _GRID_POINTS_PER_CALL
    grid points per call (at least one state), so memory stays bounded on
    large stacks. The _STARTS best grid points of each state are refined,
    those of all states as one batch. In every round each point polls
    _COMPASS * m neighbours: one of its vectors turned by the point's step
    towards one of _COMPASS evenly spaced directions in the tangent plane at
    that vector. The compass turns by the golden angle each round, so over
    the rounds the polled directions cover the tangent plane. The point
    moves to the best neighbour if that lowers its value by more than
    _GAIN * step^2, and halves its step only when none does; the margin stops a
    point from creeping along a valley on gains that vanish faster than its
    step. A point stops once its step is below _TOL, or once no poll beats
    its value and every poll lies within _FLAT_ULPS ulps of it: the
    objective is then flat at float resolution at that step, and smaller
    steps would poll the same values. A point's path depends on its own
    state only. For each state, the lowest value reached once every point
    has stopped is returned.

    The points still searching are kept compacted, with their rows, and are
    gathered again only after a round in which one stopped. Each round is
    built compass-major, as arrays of shape (_COMPASS, points * m * 3), so
    numpy's inner loops run over the whole batch rather than over three
    coordinates; the objective sees the polls through a transposed view.
    Every poll, norm and comparison is the same arithmetic, in the same
    order, as a round built point by point, so the values are the same bit
    for bit.
    """
    rows = data.reshape(-1, *data.shape[-2:])
    count = len(rows)
    starts = np.empty((count, _STARTS), dtype=int)
    start_values = np.empty(starts.shape)
    chunk = max(1, _GRID_POINTS_PER_CALL // len(grid))
    for first in range(0, count, chunk):
        states = np.arange(first, min(first + chunk, count))
        coarse = objective(grid[None], rows[states])
        starts[states] = np.argsort(coarse, axis=-1)[:, :_STARTS]
        start_values[states] = np.take_along_axis(coarse, starts[states], axis=-1)
    owner = np.repeat(np.arange(count), _STARTS)
    value = start_values.ravel()
    # `live` indexes the points still searching in the batch; a point that
    # stops leaves its value in `value`.
    live = np.arange(len(value))
    x, live_value, live_rows = grid[starts.ravel()], value.copy(), rows[owner]
    m = x.shape[1]
    steps = np.full(len(live), _STEP)
    compass = np.exp(2j * np.pi * np.arange(_COMPASS) / _COMPASS)[:, None]
    for r in range(_MAX_ROUNDS):
        size = live.size
        if size == 0:
            break
        # Row d of each (_COMPASS, size * m * 3) array is compass direction d.
        e1, e2 = _tangent_frame(x)
        turn = compass * np.exp(1j * _GOLDEN_ANGLE * r)
        turned = turn.real * e1.reshape(-1) + turn.imag * e2.reshape(-1)
        turned *= np.sin(steps).repeat(3 * m)
        turned += np.cos(steps).repeat(3 * m) * x.reshape(-1)
        turned /= _norm(turned.reshape(_COMPASS, -1, 3)).repeat(3, axis=-1)
        # polls[d, s, i] is point i with its sphere s turned towards direction d.
        polls = np.empty((_COMPASS, m, size, m, 3))
        polls[...] = x
        for s in range(m):
            polls[:, s, :, s] = turned.reshape(_COMPASS, size, m, 3)[:, :, s]
        points = polls.transpose(2, 0, 1, 3, 4).reshape(size, _COMPASS * m, m, 3)
        values = objective(points, live_rows)
        k = values.argmin(axis=1)
        best = values[np.arange(size), k]
        better = best < live_value - _GAIN * steps ** 2
        spread = np.ascontiguousarray(values.T).max(axis=0) - live_value  # a long axis to reduce
        flat = (best >= live_value) & (spread <= _FLAT_ULPS * np.spacing(np.abs(live_value)))
        moved = better.nonzero()[0]
        x[moved] = points[moved, k[moved]]
        live_value = np.where(better, best, live_value)
        steps = np.where(better, steps, 0.5 * steps)
        going = ~flat & (steps > _TOL)
        if not going.all():
            value[live] = live_value
            live, x, live_value, live_rows, steps = (a[going] for a in (live, x, live_value, live_rows, steps))
    value[live] = live_value
    return value.reshape(-1, _STARTS).min(axis=-1).reshape(data.shape[:-2])


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
    # Elementwise sums, not a matrix product, so a stack equals its single draws bit for bit.
    return bell_diagonal_state(sum(weights[..., k, None] * _BELL_CORRELATORS[k] for k in range(4)))
