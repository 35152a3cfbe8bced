"""Seeded instance generation for the benchmark workloads.

Each workload's problem content is fixed by its own instance seed (below),
so iteration counts repeat exactly from run to run.  The run's ``--seed``
draws the byte layout of the instance files instead: edge order for
MatrixMarket, number and spacing of entries per line for
QAPLIB.  Every layout parses to the same problem, and the run checks that
it does against the canonical arrays saved next to the files.

Run as a script, this writes one workload's files into a directory; the
benchmark calls it in a child process so that generation never counts
toward the timed regions or the peak-memory figure of the measured process.

    python3 perfbench/instances.py --workload qap-12 --seed 1 --out DIR
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

# problem content of every workload; changing any entry changes the benchmark
SPECS = {
    "maxcut-1k-arrivals": {
        "kind": "maxcut", "instance_seed": 20231, "n": 1000, "edges": 4000,
        "base": 950, "arrival": 10, "arrivals": 5,
    },
    "qap-12": {"kind": "qap", "instance_seed": 12, "n": 12, "hi": 10},
    "maxcut-100k": {"kind": "maxcut", "instance_seed": 100000, "n": 100_000, "edges": 400_000},
}

# tiny versions of the same shapes, used by the harness self-test
SMALL_SPECS = {
    "maxcut-1k-arrivals": {
        "kind": "maxcut", "instance_seed": 7, "n": 60, "edges": 240,
        "base": 50, "arrival": 5, "arrivals": 2,
    },
    "qap-12": {"kind": "qap", "instance_seed": 3, "n": 3, "hi": 10},
    "maxcut-100k": {"kind": "maxcut", "instance_seed": 11, "n": 400, "edges": 1600},
}


def random_edges(n: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` distinct undirected edges (u < v) drawn uniformly, in the
    order first drawn."""
    rng = np.random.default_rng(seed)
    keys = np.zeros(0, dtype=np.int64)
    while keys.size < count:
        u = rng.integers(0, n, 2 * count)
        v = rng.integers(0, n, 2 * count)
        keep = u != v
        lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
        keys = np.concatenate([keys, lo * n + hi])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    keys = keys[:count]
    return keys // n, keys % n


def random_qap(n: int, hi: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric nonnegative integer weight and distance matrices with zero
    diagonals."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2):
        a = rng.integers(0, hi, (n, n))
        a = a + a.T
        np.fill_diagonal(a, 0)
        mats.append(a.astype(np.int64))
    return mats[0], mats[1]


def write_mm(path: Path, n: int, eu: np.ndarray, ev: np.ndarray, layout_seed) -> None:
    """Symmetric pattern MatrixMarket file (lower-triangle entries) with the
    edges in a seeded order."""
    order = np.random.default_rng(layout_seed).permutation(eu.size)
    rows, cols = ev[order] + 1, eu[order] + 1
    body = np.char.add(np.char.add(rows.astype(str), " "), cols.astype(str))
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        fh.write(f"{n} {n} {eu.size}\n")
        fh.write("\n".join(body.tolist()))
        fh.write("\n")


def write_qap(path: Path, w: np.ndarray, d: np.ndarray, layout_seed) -> None:
    """QAPLIB text with a seeded number of entries per line and seeded
    spacing between them."""
    rng = np.random.default_rng(layout_seed)
    n = w.shape[0]
    per_line = int(rng.integers(1, 2 * n + 1))
    sep = " " * int(rng.integers(1, 4))
    tokens = [str(int(x)) for x in np.concatenate([w.ravel(), d.ravel()])]
    lines = [sep.join(tokens[i : i + per_line]) for i in range(0, len(tokens), per_line)]
    with open(path, "w") as fh:
        fh.write(f"{n}\n\n" + "\n".join(lines) + "\n")


def generate(workload: str, seed: int, out: Path, small: bool = False) -> dict:
    """Write the workload's instance files and canonical arrays into ``out``
    and return the manifest that names them."""
    spec = (SMALL_SPECS if small else SPECS)[workload]
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "spec": spec}
    if spec["kind"] == "qap":
        w, d = random_qap(spec["n"], spec["hi"], spec["instance_seed"])
        np.save(out / "weights.npy", w)
        np.save(out / "distances.npy", d)
        write_qap(out / "instance.dat", w, d, [seed, 0])
        manifest["files"] = ["instance.dat"]
        return manifest
    n = spec["n"]
    eu, ev = random_edges(n, spec["edges"], spec["instance_seed"])
    np.save(out / "edges.npy", np.stack([eu, ev]))
    sizes = [n]
    if "base" in spec:
        sizes = [spec["base"] + i * spec["arrival"] for i in range(spec["arrivals"] + 1)]
    files = []
    for stage, size in enumerate(sizes):
        keep = ev < size  # u < v, so this is the induced graph on 0..size-1
        name = f"graph-{stage}.mtx"
        write_mm(out / name, size, eu[keep], ev[keep], [seed, stage])
        files.append(name)
    manifest["sizes"] = sizes
    manifest["files"] = files
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--small", action="store_true", help="tiny instances for the self-test")
    args = ap.parse_args(argv)
    out = Path(args.out)
    manifest = generate(args.workload, args.seed, out, small=args.small)
    (out / "manifest.json").write_text(json.dumps(manifest))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
