"""Hot numeric kernels, in numpy.

Two kernels dominate runtime:

* ``group_terms`` — per-chromosome objective terms for a whole population of
  binary membership vectors (the inner loop of the genetic search),
* ``enet_coordinate_descent`` — non-negative elastic-net coordinate descent
  over a Gram matrix, one regression per taxon column.  Network inference
  runs it loosely, to find each column's support, and then solves every
  column exactly on its support with ``enet_kkt_finish``.  A sweep runs in
  blocks of ``CD_BLOCK`` coordinates, each served by one matrix product,
  and rounds differently from a row-by-row sweep but takes the same steps;
  the finish depends only on the support it ends on.

``group_terms`` has two formulations of the same quadratic form.  The dense
one multiplies the whole population through the Gram matrix, which costs
O(m p^2) however few bits are set.  The gathered one reads only the Gram
entries of each row's set bits, O(m w^2) for rows of w bits plus a fixed
cost per call, and wins once p clears the line in :func:`prefers_gathered`.
The two agree to rounding, not bitwise, so the caller picks one per search
and keeps it: a chromosome then scores the same in every generation.  A
gathered row's sums do not depend on the other rows of its batch, so the
genetic search scores only the rows a generation changed and copies the
rest.  A dense BLAS product may round a row differently in a batch of
another size, so a dense search scores the whole population every time.

No ``fastmath``-style reassociation is used: results are deterministic.
"""

import numpy as np

BACKEND = "numpy"

#: the expected set bits of an uncapped (``l1``) row: the first generation
#: sets each bit with probability min(0.5, L1_START_BITS / p)
L1_START_BITS = 25

#: a search over p taxa with rows of w bits gathers once p >=
#: GATHER_TAXA_PER_BIT * w + GATHER_MIN_TAXA.  On a 2-vCPU Xeon with one BLAS
#: thread and 200 chromosomes of w bits (the table that
#: ``benchmarks/bench_kernels.py`` prints), gathering wins up to w~8 at
#: p=120, w~15 at p=200, w~22 at p=300 and w~50 at p=600, for every w <= 60
#: from p=1000, and for no w >= 2 at p=60.  The line stays on the dense side
#: of each of those points, keeps every p=60 search dense, and gathers an
#: ``l1`` search from p=464 and a capped one at p=1000 up to w=58.
GATHER_TAXA_PER_BIT = 16
GATHER_MIN_TAXA = 64

#: coordinates per block of a coordinate-descent sweep.  On a 2-vCPU Xeon
#: with one BLAS thread (the table that ``benchmarks/bench_kernels.py``
#: prints), the loose pass on the inferred workload's data took 179/126/
#: 125/123 ms at p=600 and 944/822/759/739 ms at p=1000 in blocks of
#: 16/32/64/128, against 519 and 3809 ms row by row.  From 64 up the sizes
#: tie within the noise (interleaved medians at p=600: 115 ms at 64, 130
#: at 128), and 64 keeps the in-block corrections, O(CD_BLOCK p^2) flops
#: per sweep, the smaller.
CD_BLOCK = 64


def prefers_gathered(n_taxa: int, size_cap) -> bool:
    """Whether a search over ``n_taxa`` with this size cap should gather.

    The row width is the cap, or :data:`L1_START_BITS` for an uncapped
    (``None``) search.
    """
    width = L1_START_BITS if size_cap is None else size_cap
    return n_taxa >= GATHER_TAXA_PER_BIT * width + GATHER_MIN_TAXA


def group_terms(pop, gram, cvec, gathered=False):
    """Objective terms for each row of a binary population matrix.

    Args:
        pop: (m, p) uint8 matrix of chromosomes (0/1 per taxon).
        gram: (p, p) symmetric matrix M0^T M0.
        cvec: (p,) vector M0^T y0.
        gathered: use the gathered formulation (see the module docstring).

    Returns:
        (num, quad, size): per-row x.c, x.G.x and popcount, where num/quad
        are the numerator and squared denominator of the objective.
    """
    if gathered:
        return _gathered_terms(pop, gram, cvec)
    xf = pop.astype(np.float64)
    num = xf @ cvec
    quad = np.einsum("ij,ij->i", xf @ gram, xf)
    # a sum of ones is exact in float64, and one product is far cheaper
    # than a uint8 reduction
    size = (xf @ np.ones(pop.shape[1])).astype(np.int64)
    return num, quad, size


def _gathered_terms(pop, gram, cvec):
    """x.c, x.G.x and the popcount from the set bits of each row only.

    Each row's set bits fill one column of a (kmax, m) index array, padded
    with index 0 at weight 0.  Both sums run over the leading axis, which
    numpy adds element by element in order, so a row's result does not
    depend on kmax or on the other rows: padding only adds exact zeros after
    its own terms.  A sum along one contiguous run is pairwise instead, and
    its grouping would change with kmax; that is why the padded axis leads
    rather than trails, and why a single row gets an all-zero second column
    (a (kmax, 1) array is one contiguous run).
    """
    m, p = pop.shape
    width = max(m, 2)
    flat = np.flatnonzero(pop.ravel() != 0)
    rows, cols = np.divmod(flat, p)
    counts = np.bincount(rows, minlength=m)
    kmax = int(counts.max(initial=0))
    slot = np.arange(flat.size) - np.repeat(np.cumsum(counts) - counts, counts)
    idx = np.zeros((kmax, width), np.intp)
    w = np.zeros((kmax, width))
    idx[slot, rows] = cols
    w[slot, rows] = pop.ravel()[flat]
    num = (cvec[idx] * w).sum(axis=0)
    pair = gram.ravel().take(idx[:, None, :] * p + idx[None, :, :])
    pair *= w[:, None, :] * w[None, :, :]
    quad = pair.reshape(kmax * kmax, width).sum(axis=0)
    return num[:m], quad[:m], counts


def enet_coordinate_descent(gram, mu1, mu2, max_iter, tol):
    """Non-negative elastic net for every column at once.

    Solves, for each target column j of the standardized data matrix X,
        min_{b >= 0, b_j = 0}  (1/2n)||x_j - X b||^2 + mu1 ||b||_1 + (mu2/2)||b||^2
    expressed entirely through the Gram matrix ``gram = X^T X / n``.

    Coordinates are swept in index order; all p column problems advance in
    lockstep (they are independent, so this matches the per-column solver).
    A sweep runs in blocks of :data:`CD_BLOCK` coordinates.  A block K gets
    its rows' correlations with the current iterate from one product
    ``gram[K] @ B``; row k then subtracts ``gram[k, K_done] @ dB[K_done]``,
    the part of the change made by the block's earlier rows, so it sees the
    same iterate as a row-by-row sweep, up to rounding.

    Returns:
        (B, last_delta, iterations): (p, p) coefficient matrix with zero
        diagonal, the max coefficient change in the final sweep per column,
        and the number of sweeps executed per column.
    """
    p = gram.shape[0]
    B = np.zeros((p, p))
    last_delta = np.zeros(p)
    for it in range(max_iter):
        delta = np.zeros(p)
        for start in range(0, p, CD_BLOCK):
            stop = min(start + CD_BLOCK, p)
            rows = gram[start:stop]
            # partial residual correlations of the block's predictors with
            # every target, at the iterate the block starts from
            rho = rows - rows @ B
            rho += np.diag(rows, start)[:, None] * B[start:stop]
            dB = np.empty((stop - start, p))
            for i, k in enumerate(range(start, stop)):
                bk = rho[i] - gram[k, start:k] @ dB[:i]
                bk = (bk - mu1) / (gram[k, k] + mu2)
                np.clip(bk, 0.0, None, out=bk)
                bk[k] = 0.0
                np.subtract(bk, B[k], out=dB[i])
                B[k] = bk
            delta = np.maximum(delta, np.abs(dB).max(axis=0))
        last_delta = delta
        if delta.max() < tol:
            return B, last_delta, np.full(p, it + 1, np.int64)
    return B, last_delta, np.full(p, max_iter, np.int64)


class FinishError(ArithmeticError):
    """The exact finish failed on one column.

    ``reason`` is ``"singular"`` (the support system has no unique solution)
    or ``"unsettled"`` (the support still changed after the last round).
    """

    def __init__(self, column: int, reason: str):
        super().__init__(f"column {column}: {reason}")
        self.column = column
        self.reason = reason


def enet_kkt_finish(gram, B0, mu1, mu2, tol):
    """Exact solution of every column's non-negative elastic net.

    Same problem as :func:`enet_coordinate_descent`; ``gram`` must be
    symmetric.  Column j starts from the support S of ``B0[:, j]``, which
    must be non-negative with a zero diagonal (a loose coordinate-descent
    pass gives a good one).  Each round solves
        (G_SS + mu2 I) b_S = g_Sj - mu1
    on the sorted support.  If a coefficient comes out <= 0, b moves from
    the last feasible point toward that solution until the first
    coefficient reaches 0, and only that one leaves S (Lawson & Hanson's
    NNLS step; dropping every non-positive one at once can cycle).
    Otherwise the worst KKT violator off the support,
        argmax_{k not in S, k != j}  g_kj - G_kS b_S - mu1,
    enters S if its violation exceeds ``tol``; if none does, the column is
    done.  The final b_S is the solve on the sorted final support, so it
    depends only on that support and not on ``B0``.  A column may take
    2p + 1 solves: enough for every taxon to enter and leave once.

    Returns:
        (B, rounds): the (p, p) coefficient matrix and the number of solves
        per column.

    Raises:
        FinishError: on the first column whose support system is singular
            or non-finite, or that is not done after 2p + 1 solves.
    """
    p = gram.shape[0]
    B = np.zeros((p, p))
    rounds = np.zeros(p, np.int64)
    for j in range(p):
        B[:, j], rounds[j] = _finish_column(gram, j, B0[:, j], mu1, mu2, tol,
                                            2 * p + 1)
    return B, rounds


def _finish_column(gram, j, b0, mu1, mu2, tol, max_rounds):
    rhs = gram[j] - mu1
    b = np.where(b0 > 0.0, b0, 0.0)
    support = np.flatnonzero(b)
    for rounds in range(1, max_rounds + 1):
        system = gram[np.ix_(support, support)]
        system.flat[::support.size + 1] += mu2
        try:
            z = np.linalg.solve(system, rhs[support])
        except np.linalg.LinAlgError:
            raise FinishError(j, "singular") from None
        if not np.isfinite(z).all():
            raise FinishError(j, "singular")
        blocked = np.flatnonzero(z <= 0.0)
        if blocked.size:
            # step from the feasible b toward z until the first coefficient
            # hits 0; a coefficient already at 0 blocks at once
            bs = b[support]
            gap = bs[blocked] - z[blocked]
            ratio = np.divide(bs[blocked], gap, out=np.zeros_like(gap),
                              where=gap > 0.0)
            first = int(np.argmin(ratio))
            b[support] = np.maximum(bs + ratio[first] * (z - bs), 0.0)
            out = blocked[first]
            b[support[out]] = 0.0
            support = np.delete(support, out)
            continue
        b[:] = 0.0
        b[support] = z
        violation = rhs - z @ gram[support]
        violation[support] = -np.inf
        violation[j] = -np.inf
        k = int(np.argmax(violation))
        if not violation[k] > tol:
            return b, rounds
        support = np.insert(support, np.searchsorted(support, k), k)
    raise FinishError(j, "unsettled")
