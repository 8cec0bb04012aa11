"""Small exact linear algebra helpers.

Polynomial matrices are immutable nested tuples, rows outermost. That half
is what the (1,1)-tensor code still needs: ``mat_mul`` for
``TensorOneOne.compose`` and the single product N.pisharp, ``mat_sub`` for
the holomorphic relation, and ``mat_is_zero`` for the residual matrices.
Each entry of ``mat_mul`` is one call of the product kernel
``polyalg._sum_of_products`` over the products whose factors are both
nonzero.
``perfbench/tracer.py`` wraps ``linalg.mat_mul`` by that name. Rational row
reduction works on lists of Fractions and backs the affine submanifold
computations: ``rref`` reduces once and ``kernel_basis`` reads the kernel
off the reduced rows. Nothing here knows about charts or tensors.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .polyalg import Polynomial, _sum_of_products


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
    b_live = [[not b.is_zero() for b in row] for row in B]
    ring = A[0][0].variables if n and k else None
    zero = Polynomial._trusted(ring, {}, 1)
    out = []
    for a_row in A:
        live = [t for t in range(k) if not a_row[t].is_zero()]
        row = []
        for j in range(m):
            terms = [(1, a_row[t], B[t][j]) for t in live if b_live[t][j]]
            row.append(_sum_of_products(ring, terms) if terms else zero)
        out.append(tuple(row))
    return tuple(out)


def mat_is_zero(A):
    return all(a.is_zero() for row in A for a in row)


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


def kernel_basis(reduced, pivots, ncols):
    """Kernel basis of the first ncols columns of a reduced row echelon form.

    ``reduced`` and ``pivots`` are as :func:`rref` returns them, with every
    pivot below ncols; columns past ncols (an augmented right-hand side)
    are not read. One vector per free column f: 1 at f, -r[f] at the pivot
    of each row r.
    """
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in zip(reduced, pivots):
            vec[p] = -r[f]
        basis.append(tuple(vec))
    return basis


def nullspace(rows, ncols):
    """Basis of the kernel of the linear map given by rows (over Fraction)."""
    return kernel_basis(*rref(rows), ncols)
