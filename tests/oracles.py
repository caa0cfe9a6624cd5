"""Brute-force oracles used only by the tests.

Deliberately naive and independent of the library's own solve paths:
Gaussian elimination for the normal equations, characteristic-polynomial
coefficients via the trace recurrence for singular values, triple-loop
products for sparse operators, and the plain stage-by-stage Hadamard
butterfly.
"""

import numpy as np


def gaussian_solve(m, rhs):
    """Solve m x = rhs by Gaussian elimination with partial pivoting."""
    a = np.array(m, dtype=np.float64)
    x = np.array(rhs, dtype=np.float64)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0.0:
            raise ZeroDivisionError("singular matrix in oracle solve")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            x[[col, pivot]] = x[[pivot, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            x[row] -= f * x[col]
    out = np.zeros(n)
    for row in range(n - 1, -1, -1):
        out[row] = (x[row] - a[row, row + 1:] @ out[row + 1:]) / a[row, row]
    return out


def normal_equations_solve(a, b):
    """Explicit (A^T A)^{-1} A^T b, with the inverse formed column by column
    through Gaussian elimination."""
    g = a.T @ a
    d = g.shape[0]
    inv = np.column_stack([gaussian_solve(g, np.eye(d)[:, j]) for j in range(d)])
    return inv @ (a.T @ b)


def charpoly_coefficients(g):
    """Coefficients of det(t I - G) by the Faddeev-LeVerrier recurrence."""
    n = g.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(g)
    c = 1.0
    for k in range(1, n + 1):
        m = g @ m + c * np.eye(n)
        c = -np.trace(g @ m) / k
        coeffs.append(c)
    return np.array(coeffs)


def charpoly_singular_values(m):
    """Singular values of m as square roots of the characteristic-polynomial
    roots of m^T m (companion-matrix root finding, no symmetric eigensolve)."""
    g = m.T @ m
    roots = np.roots(charpoly_coefficients(g))
    vals = np.clip(roots.real, 0.0, None)
    return np.sqrt(np.sort(vals)[::-1])


def dense_projection_product(t_dense, m):
    """Triple-loop product of a dense projection matrix and a matrix."""
    k, n = t_dense.shape
    d = m.shape[1]
    out = np.zeros((k, d))
    for i in range(k):
        for j in range(n):
            if t_dense[i, j] == 0.0:
                continue
            for c in range(d):
                out[i, c] += t_dense[i, j] * m[j, c]
    return out


def reference_butterfly(work):
    """Unnormalized Hadamard butterfly along axis 0, in place, one full pass
    per stage: stride n/2, n/4, ..., 1, each block updated as
    (top + bottom, top - bottom)."""
    n, d = work.shape
    h = n // 2
    while h >= 1:
        w = work.reshape(-1, 2, h, d)
        t = w[:, 0] + w[:, 1]
        u = w[:, 0] - w[:, 1]
        w[:, 0] = t
        w[:, 1] = u
        h //= 2


def counted_ops(transform, n, cols):
    """Run `transform` on an (n, cols) object array whose entries count
    every addition and subtraction made on them. Returns the count and the
    float values of the array, or of what `transform` returns."""
    tally = [0]

    class Counted:
        __slots__ = ("v",)

        def __init__(self, v):
            self.v = v

        def __add__(self, other):
            tally[0] += 1
            return Counted(self.v + other.v)

        def __sub__(self, other):
            tally[0] += 1
            return Counted(self.v - other.v)

    work = np.empty((n, cols), dtype=object)
    for i in range(n):
        for j in range(cols):
            work[i, j] = Counted(float(i * cols + j))
    result = transform(work)
    values = work if result is None else result
    return tally[0], np.vectorize(lambda c: c.v, otypes=[float])(values)


def reference_rht(a, signs):
    """H D a with the reference butterfly, the operations of `apply_rht` in
    the same order."""
    work = np.asarray(a, dtype=np.float64) * signs[:, None]
    reference_butterfly(work)
    work *= 1.0 / np.sqrt(work.shape[0])
    return work
