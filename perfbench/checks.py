"""Reference distances and property checks, computed apart from the program.

Nothing here imports ``repro``.  Distances come from
``scipy.sparse.csgraph`` (BFS as unweighted Dijkstra on ``G``, weighted
Dijkstra on a product ``H``), run on CSR matrices assembled here from
plain edge arrays.  Every check returns a list of problem strings; an
empty list means the check passed.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: Slack for floating-point comparisons of distances.
TOL = 1e-9

#: Sources per scipy call; bounds the dense ``rows x n`` result block.
CHUNK = 32


def edge_arrays(edges: Iterable[Sequence[float]], weighted: bool = False):
    """``(u, v[, w])`` arrays from an iterable of edge tuples."""
    rows = np.asarray(list(edges), dtype=np.float64)
    if rows.size == 0:
        rows = rows.reshape(0, 3 if weighted else 2)
    u = rows[:, 0].astype(np.int64)
    v = rows[:, 1].astype(np.int64)
    if weighted:
        return u, v, rows[:, 2]
    return u, v


def edge_keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Canonical ``min * n + max`` key of each undirected edge."""
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    return lo * n + hi


def adjacency(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray = None) -> csr_matrix:
    """Symmetric CSR matrix of an undirected graph.

    Parallel entries keep their lightest weight (a plain COO -> CSR
    conversion would sum them).  Weights must be positive: csgraph reads
    a stored zero as a missing edge.
    """
    if w is None:
        w = np.ones(len(u), dtype=np.float64)
    keys = edge_keys(n, u, v)
    order = np.lexsort((w, keys))
    keys, w = keys[order], w[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys, w = keys[first], w[first]
    lo, hi = keys // n, keys % n
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    data = np.concatenate([w, w])
    return csr_matrix((data, (rows, cols)), shape=(n, n))


def distances(matrix: csr_matrix, sources: Sequence[int], *, unweighted: bool) -> np.ndarray:
    """``len(sources) x n`` distance rows (``inf`` where unreachable)."""
    sources = list(sources)
    if not sources:
        return np.zeros((0, matrix.shape[0]))
    blocks = [
        dijkstra(matrix, directed=False, unweighted=unweighted,
                 indices=sources[start:start + CHUNK])
        for start in range(0, len(sources), CHUNK)
    ]
    return np.vstack(blocks)


def check_stretch(d_g: np.ndarray, d_h: np.ndarray, alpha: float, beta: float,
                  what: str) -> List[str]:
    """``d_G <= d_H <= alpha * d_G + beta``, and ``d_H`` finite exactly when ``d_G`` is."""
    problems: List[str] = []
    fin_g = np.isfinite(d_g)
    fin_h = np.isfinite(d_h)
    lost = int(np.count_nonzero(fin_g & ~fin_h))
    if lost:
        problems.append(f"{what}: {lost} pair(s) connected in G but not in H")
    invented = int(np.count_nonzero(~fin_g & fin_h))
    if invented:
        problems.append(f"{what}: {invented} pair(s) connected in H but not in G")
    both = fin_g & fin_h
    short = int(np.count_nonzero(d_h[both] < d_g[both] - TOL))
    if short:
        problems.append(f"{what}: {short} pair(s) with d_H < d_G")
    over = int(np.count_nonzero(d_h[both] > alpha * d_g[both] + beta + TOL))
    if over:
        problems.append(f"{what}: {over} pair(s) with d_H > {alpha:g} * d_G + {beta:g}")
    return problems


def stretch_ratios(d_g: np.ndarray, d_h: np.ndarray) -> np.ndarray:
    """``d_H / d_G`` over pairs with ``0 < d_G < inf`` and finite ``d_H``."""
    mask = np.isfinite(d_g) & np.isfinite(d_h) & (d_g > 0)
    return d_h[mask] / d_g[mask]


def check_size(num_edges: int, n: int, kappa: float, what: str) -> List[str]:
    """An emulator has at most ``n^(1 + 1/kappa)`` edges."""
    bound = float(n) ** (1.0 + 1.0 / kappa)
    if num_edges > bound + TOL:
        return [f"{what}: {num_edges} edges exceed n^(1+1/kappa) = {bound:.1f}"]
    return []


def check_positive_weights(w: np.ndarray, what: str) -> List[str]:
    """Emulator weights are distances between distinct vertices, so at least 1."""
    bad = int(np.count_nonzero(~(w >= 1.0 - TOL)))
    if bad:
        return [f"{what}: {bad} edge weight(s) below 1"]
    return []


def check_subgraph(n: int, graph_keys: np.ndarray, u: np.ndarray, v: np.ndarray,
                   what: str) -> List[str]:
    """Every spanner edge is an edge of ``G`` (``graph_keys`` sorted)."""
    keys = edge_keys(n, u, v)
    pos = np.searchsorted(graph_keys, keys)
    pos = np.minimum(pos, max(0, len(graph_keys) - 1))
    present = (graph_keys[pos] == keys) if len(graph_keys) else np.zeros(len(keys), bool)
    missing = int(np.count_nonzero(~present))
    if missing:
        return [f"{what}: {missing} edge(s) not in G"]
    return []


def check_answers(answers: Sequence[float], lower: Sequence[float], upper_base: Sequence[float],
                  alpha: float, beta: float, what: str, *, check_upper: bool = True) -> List[str]:
    """Served answers lie in ``[d_lower, alpha * d_upper_base + beta]``.

    ``lower`` is ``d_G`` in the graph the answering version was built
    for; ``upper_base`` is ``d_G`` in the graph as it stood when the
    query was answered (the same array for a static oracle).  Finiteness
    must agree with ``lower``.
    """
    a = np.asarray(answers, dtype=np.float64)
    lo = np.asarray(lower, dtype=np.float64)
    hi = np.asarray(upper_base, dtype=np.float64)
    problems: List[str] = []
    mismatch = int(np.count_nonzero(np.isfinite(a) != np.isfinite(lo)))
    if mismatch:
        problems.append(f"{what}: {mismatch} answer(s) finite where d_G is not, or vice versa")
    both = np.isfinite(a) & np.isfinite(lo)
    below = int(np.count_nonzero(a[both] < lo[both] - TOL))
    if below:
        problems.append(f"{what}: {below} answer(s) below d_G")
    if check_upper:
        fin = np.isfinite(a) & np.isfinite(hi)
        above = int(np.count_nonzero(a[fin] > alpha * hi[fin] + beta + TOL))
        if above:
            problems.append(f"{what}: {above} answer(s) above {alpha:g} * d_G + {beta:g}")
    return problems
