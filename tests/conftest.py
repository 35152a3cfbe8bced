import os

# one BLAS/OpenMP thread, as CI and the benchmark run, unless the caller set
# a count: the thread count changes a solve's path and its iteration count.
# BLAS reads these when numpy is first imported, which is below.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import struct
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).parent))

from _oracles import graph_from_edges
from specbundle import bundle
from specbundle import sketch as sketchmod
from specbundle.problem import (
    GraphInstance,
    QapInstance,
    SdpProblem,
    SparseConstraintFamilies,
    _normalized_cost,
)


def pytest_addoption(parser):
    parser.addoption(
        "--regenerate-oracles",
        action="store_true",
        default=False,
        help="run the long projected-gradient oracle instead of frozen values",
    )


def make_k3() -> GraphInstance:
    return graph_from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def random_graph(n: int, p: float, seed: int) -> GraphInstance:
    rng = np.random.default_rng(seed)
    edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    if not edges:
        edges = [(0, 1, 1.0)]
    return graph_from_edges(n, edges)


def random_qap(n: int, seed: int, lo: int = 0, hi: int = 10) -> QapInstance:
    rng = np.random.default_rng(seed)
    w = rng.integers(lo, hi, (n, n)).astype(float)
    w = w + w.T
    np.fill_diagonal(w, 0.0)
    d = rng.integers(lo, hi, (n, n)).astype(float)
    d = d + d.T
    np.fill_diagonal(d, 0.0)
    return QapInstance(w, d)


def state_header_offset(name: str) -> int:
    """Byte offset in a state file of the header field ``name``, read from
    the library's table of header fields."""
    names = [field for field, _ in bundle._HEADER_FIELDS]
    codes = [code for _, code in bundle._HEADER_FIELDS[: names.index(name)]]
    return struct.calcsize("<" + "".join(codes))


def record_store_updates(monkeypatch) -> list:
    """Wrap ``sketch.sketch_update`` for the test: each call appends its
    (eta, factor, lams) to the returned list, then returns the updated
    sketch."""
    updates = []
    real = sketchmod.sketch_update

    def update(sk, eta, factor, lams):
        updates.append((eta, factor, lams))
        return real(sk, eta, factor, lams)

    monkeypatch.setattr(sketchmod, "sketch_update", update)
    return updates


def build_from_families(
    n: int,
    cost_raw,
    triples,
    b_raw,
    ineq_mask,
    alpha: float = 2.0,
    scale_x: float = 1.0,
) -> SdpProblem:
    """Generic problem from (constraint, row, col, value) entries.  Applies
    the unit-cost-norm scaling and divides b by ``scale_x``; no per-row or
    operator-norm normalization.  Raises ValueError when the cost's norm
    would overflow."""
    cost, scale_c = _normalized_cost(sp.csr_matrix(cost_raw))
    idx, rows, cols, vals = (np.asarray(a) for a in triples)
    m = len(b_raw)
    ops = SparseConstraintFamilies(n, m, idx, rows, cols, vals)
    return SdpProblem(
        n=n,
        m=m,
        cost=cost,
        constraints=ops,
        b=np.asarray(b_raw, dtype=float) / scale_x,
        ineq_mask=np.asarray(ineq_mask, dtype=bool),
        alpha=alpha,
        scale_c=scale_c,
        scale_x=scale_x,
        sense=1,
    )


def mixed_inequality_rows(n: int, seed: int, n_ineq: int = 6):
    """The rows of ``mixed_inequality_problem``: its (idx, rows, cols, vals)
    entries, b and inequality flags."""
    rng = np.random.default_rng(seed + 1000)
    idx, rows, cols, vals, b, ineq = [], [], [], [], [], []
    for i in range(n):
        idx.append(i)
        rows.append(i)
        cols.append(i)
        vals.append(1.0)
        b.append(1.0)
        ineq.append(False)
    for t in range(n_ineq):
        ci = n + t
        for _ in range(3):
            r, c = sorted(rng.integers(0, n, 2))
            idx.append(ci)
            rows.append(int(r))
            cols.append(int(c))
            vals.append(float(rng.standard_normal()))
        b.append(float(rng.random() * 0.5))
        ineq.append(True)
    return tuple(np.asarray(a) for a in (idx, rows, cols, vals)), b, ineq


def mixed_inequality_problem(n: int, seed: int, n_ineq: int = 6):
    """MaxCut diagonal equalities plus random sparse inequality rows."""
    g = random_graph(n, 0.3, seed)
    triples, b, ineq = mixed_inequality_rows(n, seed, n_ineq)
    prob = build_from_families(
        n, g.laplacian().toarray() / 4.0, triples, b, ineq, scale_x=float(n)
    )
    return prob, g


@pytest.fixture
def k3():
    return make_k3()
