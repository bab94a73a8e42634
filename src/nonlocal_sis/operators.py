"""Discrete dispersal matrix.

The hostile exterior is realized by extension with zero: the gain term
``(K u)_i = sum_j w_j J(x_i - x_j) u_j`` only collects mass from inside the
domain, while the loss term ``-u_i`` spends the kernel's full unit mass.
Mass jumping outside is simply lost, which is what makes the pure dispersal
part strictly dissipative.

K, and with it every generator ``d (K - Id) + diag(c)`` whose extreme
eigenvalues the spectral layer computes, is self-adjoint in the weighted
inner product ``<u, v>_w = sum_i w_i u_i v_i``, the discrete L2 pairing of
the grid.

On a grid of equal cells K is symmetric Toeplitz.  From
``TOEPLITZ_MIN_N`` nodes on, its products go through an FFT, and the
spectral layer and ``DispersalMatrix.shifted_solve`` use solvers that need
only those products or the first column, so no n x n array is formed.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg

from .domain import Grid, KernelSpec, _readonly, kernel_value
from .errors import InvalidArgumentError

__all__ = [
    "DispersalMatrix",
    "assemble_dispersal",
    "apply_dispersal",
]

# Smallest grid on which K is applied by FFT instead of as a dense matrix.
# Measured with OPENBLAS_NUM_THREADS=1 on a 2-core Xeon VM (triangle kernel,
# h=0.25 on [0, 1]), dense / matrix-free, best of 7:
#   K u for a (2, n) stack   n=384: 0.060 / 0.089 ms   n=512: 0.14 / 0.071 ms
#   growth rate (d = 1)      n=384:   6.9 /   3.1 ms   n=512:   13 /   2.2 ms
#   disease-free state       n=384:   3.6 /  0.42 ms   n=512:  6.4 /  0.62 ms
# RK4 is most of a simulation, so the product sets the crossover.  Read at
# call time, not exported: tests patch it here.
TOEPLITZ_MIN_N = 512

# Factor on a first-order rounding-error bound that covers its second-order
# terms and the roundings made in evaluating it (see certified_product).
ROUNDING_SLACK = 1.01


class DispersalMatrix:
    """Quadrature matrix ``K[i, j] = w_j J(x_i - x_j)``.

    Row sums equal the in-domain kernel mass at each node.  The weighted
    symmetry ``w_i K[i, j] == w_j K[j, i]`` holds to round-off (the two
    sides multiply the same three reals in different orders).

    On a grid of equal cells K is exactly symmetric Toeplitz.  A matrix given by
    its first ``column`` keeps only that; its dense ``entries`` are formed
    on first access and cached.  ``matvec`` multiplies such a matrix by
    the dense entries below ``TOEPLITZ_MIN_N`` nodes and through a
    circulant embedding of the column (one real FFT pair) at or above it.
    A matrix given by its ``entries`` is always applied densely.
    ``shifted_solve`` solves ``(diag(c) - d K) x = b``, the one linear
    system of the stationary states, by the method its storage allows.
    ``symmetric``, ``D^{1/2} K D^{-1/2}`` with ``D = diag(w)``, is formed once,
    on first access: ``entries`` itself on equal cells, else one more array.
    """

    def __init__(self, entries=None, grid: Grid | None = None, *, column=None):
        if grid is None or (entries is None) == (column is None):
            raise InvalidArgumentError("need a grid and exactly one of entries, column")
        self.grid, self.n = grid, grid.n
        self.sqrt_weights = _readonly(np.sqrt(grid.weights))
        if column is None:
            self.column, self.entries = None, _readonly(entries)
            shape, expected = self.entries.shape, (grid.n, grid.n)
        else:
            self.column = _readonly(column)
            shape, expected = self.column.shape, (grid.n,)
        if shape != expected:
            raise InvalidArgumentError(
                f"matrix shape {shape} does not match grid n={grid.n}")
        # whether products, eigensolves and solves use the Toeplitz structure
        self.matrix_free = column is not None and grid.n >= TOEPLITZ_MIN_N

    @functools.cached_property
    def entries(self) -> np.ndarray:
        # reached only for a K given by its column: __init__ sets given entries
        dense = scipy.linalg.toeplitz(self.column)
        dense.flags.writeable = False
        return dense

    @functools.cached_property
    def symmetric(self) -> np.ndarray:
        w, s, Ks = self.grid.weights, self.sqrt_weights, self.entries
        if not (w == w[0]).all():  # on equal cells K is exactly symmetric
            Ks = s[:, None] * Ks / s[None, :]
            Ks = np.multiply(0.5, Ks + Ks.T, out=Ks)  # scrub roundoff asymmetry
            Ks.flags.writeable = False
        return Ks

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """``K u`` for a float node field, or for each row of a stack of
        fields.

        The FFT product keeps two exact properties of ``K u`` that its
        round-off (about 1e-17 of ``max |u|``) would break: it is 0 at every
        node whose kernel band holds no nonzero of ``u``, and, since
        K >= 0 entrywise, it is nonnegative when ``u`` is.
        """
        if not self.matrix_free:
            if u.ndim == 1:
                return self.entries @ u
            # one matrix-vector product per field: the same bits as a
            # single field, which a matrix-matrix product does not give
            return np.stack([self.entries @ field for field in u])
        from scipy import fft  # imported on the large-grid path only

        m, spectrum, lo, hi = self._fft_plan
        out = fft.irfft(spectrum * fft.rfft(u, m), m)[..., :self.n]
        if not u.all():
            nonzeros = np.zeros(u.shape[:-1] + (self.n + 1,))
            np.cumsum(u != 0.0, axis=-1, out=nonzeros[..., 1:])
            out[nonzeros[..., hi] == nonzeros[..., lo]] = 0.0
        nonneg = u.min(axis=-1, keepdims=True) >= 0.0
        return np.maximum(out, 0.0, out=out, where=nonneg)

    def certified_product(self, u: np.ndarray) -> tuple:
        """``(g, e)``: the product ``g = fl(K u)`` of a float node field by
        direct sums, and a bound ``|g - K u| <= e`` at each node.

        A dense K sums its rows (``k = n`` terms); a matrix-free K convolves
        ``u`` with the mirrored band of its column (``k = 2 band + 1``), in
        O(n band) operations.  Each ``(K u)_i`` is an inner product with at
        most ``k`` nonzero terms, so ``|g - K u| <= gamma_k K |u|`` in any
        order of summation, as K >= 0 (Higham, *Accuracy and Stability of
        Numerical Algorithms*, 2nd ed., 2002, section 3.1; ``gamma_k = k unit
        / (1 - k unit)`` with ``unit = 2**-53``).  ``K |u|`` is summed in the
        same way.  ``ROUNDING_SLACK`` absorbs the second-order terms and the
        roundings of the bound itself; the subnormal term covers underflow,
        at most ``2**-1075`` per multiplication, which Higham leaves out.
        """
        if not self.matrix_free:
            terms = self.n
            gain, magnitude = self.entries @ u, self.entries @ np.abs(u)
        else:
            band = self._band()
            terms = 2 * band + 1
            stencil = np.concatenate([self.column[band:0:-1], self.column[:band + 1]])
            # not mode="same": it returns 2 band + 1 entries if that exceeds n
            gain, magnitude = (np.convolve(x, stencil)[band:band + self.n]
                               for x in (u, np.abs(u)))
        gamma = terms * 2.0**-53 / (1.0 - terms * 2.0**-53)
        return gain, ROUNDING_SLACK * gamma * magnitude + terms * 2.0**-1073

    def shifted_solve(self, d: float, c: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve ``(diag(c) - d K) x = b`` for node fields ``c`` and ``b``:
        by LU on a dense K; on a matrix-free K by Levinson's recursion on
        the Toeplitz column when ``c`` is constant, and otherwise by
        conjugate gradients on ``matvec`` to a relative residual of 1e-12,
        which needs the matrix positive definite, as a nonsingular M-matrix
        on equal cells is.  A singular matrix, or CG that does not
        converge, raises ``np.linalg.LinAlgError``.
        """
        if not self.matrix_free:
            A = -d * self.entries
            A.flat[::self.n + 1] += c
            return np.linalg.solve(A, b)
        if np.all(c == c[0]):
            from scipy.linalg import solve_toeplitz  # large grids only

            column = -d * self.column
            column[0] += c[0]
            return solve_toeplitz(column, b)
        from scipy.sparse.linalg import LinearOperator, cg  # large grids only

        def apply(v: np.ndarray) -> np.ndarray:
            return c * v.ravel() - d * self.matvec(v.ravel())

        x, info = cg(LinearOperator((self.n, self.n), matvec=apply, dtype=float),
                     b, rtol=1e-12, atol=0.0)
        if info != 0:
            raise np.linalg.LinAlgError(f"CG did not converge (info {info})")
        return x

    def _band(self) -> int:
        """The largest ``k`` with ``column[k] != 0``: row ``i`` of K is zero
        outside columns ``i - k .. i + k``."""
        nonzero = np.flatnonzero(self.column)
        return int(nonzero[-1]) if nonzero.size else 0

    @functools.cached_property
    def _fft_plan(self) -> tuple:
        """Embedding length, spectrum and band limits, built on first use.

        K is the leading n x n block of a symmetric circulant of length
        ``m >= 2n - 1`` (Chan & Ng, SIAM Review 38, 1996), whose spectrum
        is real.  Row ``i`` of K is zero outside columns ``lo[i]:hi[i]``.
        """
        from scipy import fft

        n = self.n
        m = fft.next_fast_len(2 * n - 1, real=True)
        embedding = np.zeros(m)
        embedding[:n] = self.column
        embedding[m - n + 1:] = self.column[:0:-1]
        band = self._band()
        nodes = np.arange(n)
        return (m, fft.rfft(embedding).real, np.maximum(nodes - band, 0),
                np.minimum(nodes + band, n - 1) + 1)

    def row_masses(self) -> np.ndarray:
        if not self.matrix_free:
            return self.entries.sum(axis=1)
        # row i holds column[0..i] and column[1..n-1-i]
        prefix = np.cumsum(self.column)
        return prefix + prefix[::-1] - self.column[0]


def assemble_dispersal(grid: Grid, kernel: KernelSpec) -> DispersalMatrix:
    """Assemble the dispersal gain matrix for a grid/kernel pair.

    From ``TOEPLITZ_MIN_N`` nodes on a grid of equal cells (as every
    ``build_grid`` grid has) this evaluates the kernel once per node, for
    the first column ``w J(x_i - x_0)``.  Smaller or unequal grids get the
    dense pairwise matrix.  Building small grids from the column as well
    would move results in the last bits, and its different order of n x n
    allocations measured 8-10% slower on n=256 sweeps (page faults as the
    heap grew and shrank).
    """
    w, nodes = grid.weights, grid.nodes
    if (grid.n >= TOEPLITZ_MIN_N and np.all(w == w[0])
            and np.allclose(np.diff(nodes), w[0], rtol=1e-9, atol=0.0)):
        column = kernel_value(kernel, nodes - nodes[0]) * w
        return DispersalMatrix(grid=grid, column=column)
    diff = nodes[:, None] - nodes[None, :]
    entries = kernel_value(kernel, diff) * w[None, :]
    return DispersalMatrix(entries=entries, grid=grid)


def apply_dispersal(d: float, K: DispersalMatrix, u: np.ndarray) -> np.ndarray:
    """Apply ``d (K u - u)``: kernel-weighted gain minus full-mass loss."""
    u = np.asarray(u, dtype=float)
    if u.shape != (K.n,):
        raise InvalidArgumentError(f"field length {u.shape} does not match n={K.n}")
    return d * (K.matvec(u) - u)

