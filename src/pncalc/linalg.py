"""Small exact linear algebra helpers.

Polynomial matrices are immutable nested tuples, rows outermost. That half
is what the (1,1)-tensor code still needs: ``mat_mul`` for
``TensorOneOne.compose`` and the single product N.pisharp, ``mat_sub`` for
the holomorphic relation, and ``mat_is_zero`` for the residual matrices.
``perfbench/tracer.py`` wraps ``linalg.mat_mul`` by that name. Rational row
reduction works on lists of Fractions and backs the affine submanifold
computations. Nothing here knows about charts or tensors.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .polyalg import Polynomial


def mat(rows):
    """Freeze a rectangular nested sequence into a tuple-of-tuples matrix."""
    rows = tuple(tuple(r) for r in rows)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise InputError("ragged matrix")
    return rows


def mat_shape(A):
    return (len(A), len(A[0]) if A else 0)


def mat_sub(A, B):
    if mat_shape(A) != mat_shape(B):
        raise InputError(f"matrix shape mismatch: {mat_shape(A)} vs {mat_shape(B)}")
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_mul(A, B):
    n, k = mat_shape(A)
    k2, m = mat_shape(B)
    if k != k2:
        raise InputError(f"cannot multiply {n}x{k} by {k2}x{m}")
    # Products with a zero factor add nothing, so only the others are formed.
    # An entry whose products all vanish takes the zero factor of its first
    # product, A[i][0] or B[0][j]: a zero of the same kind (Polynomial ring
    # or number) as the full sum.
    b_live = [[not _entry_is_zero(b) for b in row] for row in B]
    out = []
    for i in range(n):
        a_row = A[i]
        live = [t for t in range(k) if not _entry_is_zero(a_row[t])]
        row = []
        for j in range(m):
            acc = None
            for t in live:
                if b_live[t][j]:
                    prod = a_row[t] * B[t][j]
                    acc = prod if acc is None else acc + prod
            if acc is None:
                acc = a_row[0] if b_live[0][j] else B[0][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_is_zero(A):
    return all(_entry_is_zero(a) for row in A for a in row)


def _entry_is_zero(a):
    if isinstance(a, Polynomial):
        return a.is_zero()
    return a == 0


def rref(rows):
    """Reduced row echelon form over Fraction.

    Returns (reduced rows as tuples, pivot column indices). Zero rows are
    dropped.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        scale = work[r][c]
        work[r] = [x / scale for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    reduced = [tuple(row) for row in work[:r]]
    return reduced, pivots


def nullspace(rows, ncols):
    """Basis of the kernel of the linear map given by rows (over Fraction)."""
    if not rows:
        return [
            tuple(Fraction(1 if i == j else 0) for i in range(ncols))
            for j in range(ncols)
        ]
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in zip(reduced, pivots):
            vec[p] = -r[f]
        basis.append(tuple(vec))
    return basis
