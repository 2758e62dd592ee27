"""Benchmark the dense and gathered fitness formulations and the enet kernel.

Times ``group_terms`` both ways on populations shaped like the GA's: p=1000
with ~9 set bits per row (a size-capped search at k=9..11) and p=600 with
~35 (an uncapped ``l1`` search), and reports the largest deviation between
the two relative to the summed term magnitudes.  Also times the
non-negative elastic-net coordinate descent.  Pin BLAS to one thread (for
example ``OPENBLAS_NUM_THREADS=1``) for numbers comparable with the
formulation switch in ``coresponse/_kernels.py``.

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


def bench_enet(args) -> None:
    rng = np.random.default_rng(1)
    n, p = args.samples, args.enet_taxa
    X = rng.normal(size=(n, p))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    gram = X.T @ X / n
    gram = (gram + gram.T) / 2.0
    t = best_of(lambda: k.enet_coordinate_descent(gram, 0.05, 0.01, 200, 1e-8),
                args.repeats)
    print(f"enet_coordinate_descent ({p} taxa, {n} samples): "
          f"{t * 1e3:8.2f} ms")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=200,
                        help="rows of the data matrices")
    parser.add_argument("--pop-rows", type=int, default=200,
                        help="chromosomes per group_terms call")
    parser.add_argument("--enet-taxa", type=int, default=120,
                        help="taxa for the coordinate-descent benchmark")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed calls per kernel (best is reported)")
    args = parser.parse_args()

    print(f"backend: {k.BACKEND}")
    bench_group_terms(args)
    bench_enet(args)


if __name__ == "__main__":
    main()
