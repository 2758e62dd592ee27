"""Benchmark the dense and gathered fitness formulations and the enet solve.

Times ``group_terms`` both ways on populations shaped like the GA's: p=1000
with ~9 set bits per row (a size-capped search at k=9..11) and p=600 with
~35 (an uncapped ``l1`` search), and reports the largest deviation between
the two relative to the summed term magnitudes.  Also compares two ways
to solve the non-negative elastic net of network inference on synthetic
p=600 abundance (the benchmark's inferred workload at seed 1): coordinate
descent to a 1e-8 sweep tolerance, and the loose pass plus exact KKT
finish that ``network.infer_network`` runs, with sweeps, solves and KKT
residuals.  Times the blocked loose pass against the row-by-row sweep it
replaced, which is kept below, and checks that both give the same
supports and a bitwise-equal finished matrix.  Prints the two tables that
rules in ``coresponse/_kernels.py`` are fitted to.  The dense-vs-gathered
table times both formulations on rows of exactly w bits for p in
``TABLE_TAXA`` and w = 2..60, with the largest w at which gathering wins
and the largest w that the rule gathers.  The block table times the
loose pass at the block sizes ``BLOCK_SIZES`` for p in ``BLOCK_TAXA``,
against the row-by-row sweep, for ``CD_BLOCK``.  Times one
``run_ga`` generation on the perfbench workloads' shapes (quickstart p=60
capped at 6 and uncapped, scale p=1000 capped at 10, inferred-sized p=600
uncapped), 60 generations with no stagnation stop, the share of it spent
in ``group_terms`` and the rows it scores per generation.  Times one
``Objective`` build at p=600 and p=1000, against the build it replaced
(kept below), which formed ``(G + G^T)/2`` even from an exactly symmetric
``G``, and the builds of a paper-scale ``select-k`` (k = 2..50, 10
repeats) with one build per run against one shared build.  Times
``analyze``'s all-pairs shortest paths (``analytics._shortest_paths``) on
the network ``infer-net`` finds on the inferred workload's data and on
complete 8-block graphs at p=300 and p=1000, at each budget in
``PATH_BUDGETS``, against scipy's ``dijkstra(directed=False)`` when scipy
imports, with whether the two agree bit for bit: the table that
``PATH_BLOCK_FLOATS`` in ``coresponse/analytics.py`` is fitted to.  Pin
BLAS to one thread (for example ``OPENBLAS_NUM_THREADS=1``) for numbers
comparable with the rules.

Run from the repository root:

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --pop-rows 1000 --enet-taxa 200
"""

import argparse
import time

import numpy as np

from coresponse import _kernels as k

#: (taxa, mean set bits per row, size cap of the search that makes them)
CASES = ((1000, 9, 10), (600, 35, None))


def best_of(fn, repeats: int) -> float:
    """Minimum wall time of ``fn()`` over ``repeats`` calls, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_group_terms(args) -> None:
    rng = np.random.default_rng(0)
    n, m = args.samples, args.pop_rows
    for p, bits, cap in CASES:
        M0 = rng.normal(size=(n, p))
        M0 -= M0.mean(axis=0)
        y0 = rng.normal(size=n)
        gram = M0.T @ M0
        gram = (gram + gram.T) / 2.0
        cvec = M0.T @ (y0 - y0.mean())
        pop = (rng.random((m, p)) < bits / p).astype(np.uint8)

        t_dense = best_of(lambda: k.group_terms(pop, gram, cvec), args.repeats)
        t_gath = best_of(lambda: k.group_terms(pop, gram, cvec, gathered=True),
                         args.repeats)
        dense = k.group_terms(pop, gram, cvec)
        gath = k.group_terms(pop, gram, cvec, gathered=True)
        X = pop.astype(np.float64)
        scales = (X @ np.abs(cvec), np.einsum("ij,jk,ik->i", X, np.abs(gram), X))
        dev = max(float(np.max(np.abs(a - b) / np.maximum(s, 1e-300)))
                  for a, b, s in zip(dense[:2], gath[:2], scales))
        chosen = "gathered" if k.prefers_gathered(p, cap) else "dense"
        search = "uncapped" if cap is None else f"capped at {cap}"
        print(f"group_terms, {m} chromosomes x {p} taxa, "
              f"{X.sum(axis=1).mean():.1f} bits/row "
              f"(a search {search} runs {chosen})")
        print(f"  dense    : {t_dense * 1e3:8.3f} ms")
        print(f"  gathered : {t_gath * 1e3:8.3f} ms  "
              f"(x{t_dense / t_gath:.1f}, max rel dev {dev:.1e})")


#: taxon counts and row widths of the dense-vs-gathered table
TABLE_TAXA = (60, 120, 200, 300, 600, 1000, 2000)
TABLE_WIDTHS = range(2, 61)
#: widths printed as columns; the break-even uses every width
TABLE_SHOWN = (2, 5, 10, 15, 20, 25, 30, 40, 50, 60)


def bench_table(args) -> None:
    rng = np.random.default_rng(0)
    m = args.pop_rows
    print(f"dense / gathered time, {m} chromosomes of exactly w bits "
          "(>1 means gathering wins)")
    print("     p  dense ms  " + "".join(f"w={w:<5d}" for w in TABLE_SHOWN)
          + "  wins to w  rule to w")
    for p in TABLE_TAXA:
        X = rng.normal(size=(args.samples, p))
        gram = X.T @ X
        gram = (gram + gram.T) / 2.0
        cvec = X.T @ rng.normal(size=args.samples)
        ratios = {}
        t_dense = None
        for w in TABLE_WIDTHS:
            if w > p:
                break
            order = rng.random((m, p)).argsort(axis=1)[:, :w]
            pop = np.zeros((m, p), np.uint8)
            np.put_along_axis(pop, order, 1, axis=1)
            if t_dense is None:  # the dense cost does not follow w
                t_dense = best_of(lambda: k.group_terms(pop, gram, cvec),
                                  args.repeats)
            ratios[w] = t_dense / best_of(
                lambda: k.group_terms(pop, gram, cvec, gathered=True),
                args.repeats)
        wins = max((w for w, ratio in ratios.items() if ratio > 1.0),
                   default=0)
        rule = max((w for w in TABLE_WIDTHS if k.prefers_gathered(p, w)),
                   default=0)
        cells = "".join(f"{ratios[w]:<7.2f}" if w in ratios else " " * 7
                        for w in TABLE_SHOWN)
        print(f"  {p:4d}  {t_dense * 1e3:8.3f}  {cells}  {wins:9d}  {rule:9d}")


#: (samples, taxa, blocks, planted size, OptimizerConfig keywords)
GA_CASES = (
    (100, 60, 4, 6, dict(k_opt=6)),
    (100, 60, 4, 6, dict(mu=0.02)),
    (200, 1000, 8, 10, dict(k_opt=10)),
    (200, 600, 8, 10, dict(mu=0.02)),
)
GA_GENERATIONS = 60


def bench_run_ga(args) -> None:
    from coresponse import ga
    from coresponse.synth import SynthSpec, generate

    kernel = ga.group_terms
    kernel_s, kernel_rows = 0.0, 0

    def timed_kernel(*a, **kw):
        nonlocal kernel_s, kernel_rows
        kernel_rows += a[0].shape[0]
        start = time.perf_counter()
        try:
            return kernel(*a, **kw)
        finally:
            kernel_s += time.perf_counter() - start

    print(f"run_ga, {GA_GENERATIONS} generations of 200 chromosomes, "
          "no stagnation stop")
    ga.group_terms = timed_kernel  # run_ga looks the kernel up here
    try:
        for n, p, blocks, planted, kw in GA_CASES:
            bundle = generate(SynthSpec(n_samples=n, n_taxa=p, n_blocks=blocks,
                                        planted_group=tuple(range(planted)),
                                        seed=1))
            M, y = bundle.abundance.values, bundle.function.values
            M0, y0 = M - M.mean(axis=0), y - y.mean()
            cfg = ga.OptimizerConfig(max_generations=GA_GENERATIONS,
                                     stagnation_limit=GA_GENERATIONS + 1, **kw)
            best, share = float("inf"), 0.0
            for _ in range(args.repeats):
                kernel_s, kernel_rows = 0.0, 0
                start = time.perf_counter()
                generations = len(ga.run_ga(M0, y0, cfg).history)
                took = time.perf_counter() - start
                if took < best:
                    best, share = took, kernel_s / took
            search = ("uncapped" if cfg.k_opt is None
                      else f"capped at {cfg.k_opt}")
            print(f"  p={p:5d} {search:14s}: {best / GA_GENERATIONS * 1e3:7.3f} "
                  f"ms per generation, {share:4.0%} in group_terms, "
                  f"{kernel_rows / generations:5.1f} of "
                  f"{cfg.population_size} rows scored per generation")
    finally:
        ga.group_terms = kernel


#: taxon counts of the Objective build row, and the runs of a default
#: select-k sweep (k = 2..50, 10 repeats), which share one build
OBJECTIVE_TAXA = (600, 1000)
SWEEP_RUNS = 49 * 10


def old_objective_arrays(M0, y0):
    """The arrays of an ``Objective`` as each run built them before: the
    Gram matrix symmetrized by ``(G + G^T)/2`` whatever it held."""
    gram = M0.T @ M0
    return (gram + gram.T) / 2.0, M0.T @ y0, float(np.sqrt(y0 @ y0))


def bench_objective(args) -> None:
    from coresponse import ga

    rng = np.random.default_rng(0)
    print(f"Objective build, {args.samples} samples; a select-k sweep of "
          f"{SWEEP_RUNS} runs built one per run and shares one now")
    for p in OBJECTIVE_TAXA:
        M0 = rng.lognormal(size=(args.samples, p))
        M0 -= M0.mean(axis=0)
        y0 = rng.normal(size=args.samples)
        y0 -= y0.mean()
        t_new = best_of(lambda: ga.Objective(M0, y0), args.repeats)
        t_old = best_of(lambda: old_objective_arrays(M0, y0), args.repeats)
        same = (ga.Objective(M0, y0).gram.tobytes()
                == old_objective_arrays(M0, y0)[0].tobytes())
        print(f"  p={p:5d}: build {t_new * 1e3:6.2f} ms ({t_old * 1e3:6.2f} "
              f"ms with (G + G^T)/2, same bits: {same}); sweep builds "
              f"{SWEEP_RUNS * t_old:5.2f} s one per run, {t_new:6.4f} s "
              "shared")


def kkt_residuals(gram, B, mu1, mu2):
    """Worst |stationarity| on the supports and worst violation off them."""
    grad = gram - mu1 - gram @ B - mu2 * B
    on = B > 0
    off = ~on
    np.fill_diagonal(off, False)
    return (np.abs(grad[on]).max(initial=0.0),
            grad[off].max(initial=-np.inf))


def row_by_row_coordinate_descent(gram, mu1, mu2, max_iter, tol):
    """The loose pass before it ran in blocks: one product per coordinate."""
    p = gram.shape[0]
    B = np.zeros((p, p))
    last_delta = np.zeros(p)
    for it in range(max_iter):
        delta = np.zeros(p)
        for j in range(p):
            rho = gram[j, :] - gram[j, :] @ B + gram[j, j] * B[j, :]
            bj = (rho - mu1) / (gram[j, j] + mu2)
            np.clip(bj, 0.0, None, out=bj)
            bj[j] = 0.0
            delta = np.maximum(delta, np.abs(bj - B[j, :]))
            B[j, :] = bj
        last_delta = delta
        if delta.max() < tol:
            return B, last_delta, np.full(p, it + 1, np.int64)
    return B, last_delta, np.full(p, max_iter, np.int64)


def inferred_gram(samples, p):
    """The Gram matrix ``network.infer_network`` builds for the abundance of
    the benchmark's inferred workload (seed 1) at ``p`` taxa."""
    from coresponse.synth import SynthSpec, generate

    X = generate(SynthSpec(n_samples=samples, n_taxa=p, n_blocks=8,
                           planted_group=tuple(range(10)),
                           seed=1)).abundance.values
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    gram = X.T @ X / X.shape[0]
    return (gram + gram.T) / 2.0


def bench_enet(args) -> None:
    from coresponse.network import LOOSE_MAX_SWEEPS, LOOSE_TOLERANCE

    p = args.enet_taxa
    gram = inferred_gram(args.samples, p)
    mu1, mu2, tol = 0.1, 0.01, 1e-8

    def loose(kernel):
        return kernel(gram, mu1, mu2, LOOSE_MAX_SWEEPS, LOOSE_TOLERANCE)

    def one_step():
        return k.enet_coordinate_descent(gram, mu1, mu2, 500, tol)

    def two_step():
        B0, _, sweeps = loose(k.enet_coordinate_descent)
        B, rounds = k.enet_kkt_finish(gram, B0, mu1, mu2, tol)
        return B, sweeps, rounds

    t_one = best_of(one_step, args.repeats)
    t_two = best_of(two_step, args.repeats)
    B_one, _, sweeps_one = one_step()
    B_two, sweeps_two, rounds = two_step()
    print(f"non-negative elastic net ({p} taxa, {args.samples} samples, "
          f"mu1={mu1}, mu2={mu2}, {(B_two > 0).sum(axis=0).mean():.1f} "
          f"nonzeros per column)")
    for name, t, B, note in (
            (f"CD to {tol:g}", t_one, B_one, f"{sweeps_one[0]} sweeps"),
            ("two-step", t_two, B_two,
             f"{sweeps_two[0]} sweeps to {LOOSE_TOLERANCE:g}, "
             f"{rounds.max()} solves at most")):
        on, off = kkt_residuals(gram, B, mu1, mu2)
        print(f"  {name:10s}: {t * 1e3:8.2f} ms  ({note}; KKT residual on "
              f"the supports {on:.1e}, worst violation off them {off:.1e})")
    print(f"  same supports: {np.array_equal(B_one > 0, B_two > 0)}, "
          f"max |dB| {np.abs(B_one - B_two).max():.1e}, "
          f"x{t_one / t_two:.1f}")

    t_blocked = best_of(lambda: loose(k.enet_coordinate_descent), args.repeats)
    t_rows = best_of(lambda: loose(row_by_row_coordinate_descent),
                     args.repeats)
    B_blocked, _, sweeps = loose(k.enet_coordinate_descent)
    B_rows, _, sweeps_rows = loose(row_by_row_coordinate_descent)
    finished = k.enet_kkt_finish(gram, B_blocked, mu1, mu2, tol)[0]
    finished_rows = k.enet_kkt_finish(gram, B_rows, mu1, mu2, tol)[0]
    print(f"loose pass to {LOOSE_TOLERANCE:g}, blocks of {k.CD_BLOCK}: "
          f"{t_blocked * 1e3:.2f} ms ({sweeps[0]} sweeps) against "
          f"{t_rows * 1e3:.2f} ms row by row ({sweeps_rows[0]} sweeps), "
          f"x{t_rows / t_blocked:.1f}")
    same_bits = np.array_equal(finished.view(np.uint64),
                               finished_rows.view(np.uint64))
    print(f"  max |dB| {np.abs(B_blocked - B_rows).max():.1e}, same "
          f"supports: {np.array_equal(B_blocked > 0, B_rows > 0)}, finished "
          f"B bitwise equal: {same_bits}")


#: taxon counts and block sizes of the loose-pass table
BLOCK_TAXA = (600, 1000)
BLOCK_SIZES = (16, 32, 64, 128)


def bench_blocks(args) -> None:
    from coresponse.network import LOOSE_MAX_SWEEPS, LOOSE_TOLERANCE

    print(f"loose pass to {LOOSE_TOLERANCE:g} by block size, ms "
          f"(CD_BLOCK is {k.CD_BLOCK})")
    print("     p  row by row  " + "".join(f"b={b:<8d}" for b in BLOCK_SIZES)
          + "sweeps")
    kept = k.CD_BLOCK
    try:
        for p in BLOCK_TAXA:
            gram = inferred_gram(args.samples, p)
            t_rows = best_of(lambda: row_by_row_coordinate_descent(
                gram, 0.1, 0.01, LOOSE_MAX_SWEEPS, LOOSE_TOLERANCE),
                args.repeats)
            cells = []
            for b in BLOCK_SIZES:
                k.CD_BLOCK = b  # the kernel reads its block size here
                cells.append(best_of(lambda: k.enet_coordinate_descent(
                    gram, 0.1, 0.01, LOOSE_MAX_SWEEPS, LOOSE_TOLERANCE),
                    args.repeats))
            sweeps = k.enet_coordinate_descent(gram, 0.1, 0.01,
                                               LOOSE_MAX_SWEEPS,
                                               LOOSE_TOLERANCE)[2][0]
            print(f"  {p:4d}  {t_rows * 1e3:10.1f}  "
                  + "".join(f"{t * 1e3:<10.1f}" for t in cells)
                  + f"{sweeps:6d}")
    finally:
        k.CD_BLOCK = kept


#: the shortest-path table's graphs: the network ``infer-net`` finds on
#: the inferred workload's data (seed 1), and complete 8-block graphs
PATH_CASES = (("inferred", 600), ("complete", 300), ("complete", 1000))
#: values of ``analytics.PATH_BLOCK_FLOATS`` the table tries
PATH_BUDGETS = (2 ** 12, 2 ** 14, 2 ** 16, 2 ** 18, 2 ** 20)


def path_graph(kind: str, p: int, samples: int) -> np.ndarray:
    """The adjacency of one shortest-path case."""
    from coresponse.synth import SynthSpec, block_adjacency, generate

    if kind == "complete":
        return block_adjacency(p, 8, 0.5, 0.05)
    from coresponse.ingest import css_normalize, filter_sparse_taxa
    from coresponse.network import infer_network

    bundle = generate(SynthSpec(
        n_samples=samples, n_taxa=p, n_blocks=8, intra_block_weight=0.5,
        planted_group=tuple(range(10)), noise_sigma=0.05, seed=1))
    return infer_network(css_normalize(filter_sparse_taxa(
        bundle.raw_abundance))).adjacency


def scipy_paths(A):
    """``analyze``'s shortest paths as scipy computes them, or None."""
    try:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra
    except ImportError:
        return None
    ia, ja = np.nonzero(A)
    lengths = csr_matrix((1.0 / A[ia, ja], (ia, ja)), shape=A.shape)
    return dijkstra(lengths, directed=False)


def bench_paths(args) -> None:
    from coresponse import analytics

    kept = analytics.PATH_BLOCK_FLOATS
    print("all-pairs shortest paths, s, by PATH_BLOCK_FLOATS (sources per "
          f"block in brackets; the constant is 2^{kept.bit_length() - 1})")
    print(f"  {'graph':<30s}" + "".join(f"2^{f.bit_length() - 1:<12d}"
                                        for f in PATH_BUDGETS)
          + "scipy    bitwise equal")
    try:
        for kind, p in PATH_CASES:
            A = path_graph(kind, p, args.samples)
            widest = max(int(np.count_nonzero(A, axis=1).max()), 1)
            cells = []
            for floats in PATH_BUDGETS:
                analytics.PATH_BLOCK_FLOATS = floats  # read at each call
                block = min(p, max(1, floats // widest))
                t = best_of(lambda: analytics._shortest_paths(A),
                            args.repeats)
                cells.append(f"{t:<6.3f}[{block}]".ljust(14))
            analytics.PATH_BLOCK_FLOATS = kept
            dist = analytics._shortest_paths(A)
            ref = scipy_paths(A)
            if ref is None:
                t_scipy, same = "-", "no scipy"
            else:
                t = best_of(lambda: scipy_paths(A), args.repeats)
                t_scipy = f"{t:.3f}"
                same = str(np.array_equal(dist.view(np.uint64),
                                          ref.view(np.uint64)))
            name = f"{kind} p={p} ({np.count_nonzero(A)} nz)"
            print(f"  {name:<30s}" + "".join(cells) + f"{t_scipy:<9s}{same}")
    finally:
        analytics.PATH_BLOCK_FLOATS = kept


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=200,
                        help="rows of the data matrices")
    parser.add_argument("--pop-rows", type=int, default=200,
                        help="chromosomes per group_terms call")
    parser.add_argument("--enet-taxa", type=int, default=600,
                        help="taxa for the elastic-net benchmark")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed calls per kernel (best is reported)")
    args = parser.parse_args()

    print(f"backend: {k.BACKEND}")
    bench_group_terms(args)
    bench_table(args)
    bench_run_ga(args)
    bench_objective(args)
    bench_enet(args)
    bench_blocks(args)
    bench_paths(args)


if __name__ == "__main__":
    main()
