"""Spans and counts recorded around the library's public functions.

The tracer replaces module attributes (``specbundle.bundle.lanczos_top``,
``specbundle.subqp.ipm_quad``, ...) with wrappers that open a span, call the
real function and read counts from what it returns.  Nothing inside the
library changes; the wrappers sit at the boundaries between its modules.
Spans are kept in memory and written out when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Calls nest on one thread, so the children of a span cover
disjoint parts of it, and the self times of all spans add up to the
duration of the root span.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from specbundle import bundle, problem, rounding, sketch, subqp
from specbundle.eigsolve import LinOp

ROOT = "harness"

# span name -> per-layer time metric; every span name maps to exactly one
# metric, so the self times reported add up to the root span
SELF_METRICS = {
    "eigsolve": "eigsolve.self_s",
    "subqp.altmax": "subqp.altmax.self_s",
    "subqp.ipm_quad": "subqp.ipm_quad.self_s",
    "subqp.ipm_eval": "subqp.ipm_eval.self_s",
    "subqp.coeffs": "subqp.coeffs.self_s",
    "symlin.symm_kron": "symlin.symm_kron.self_s",
    "symlin.solve_spd": "symlin.solve_spd.self_s",
    "problem.parse": "problem.parse.self_s",
    "problem.build": "problem.build.self_s",
    "problem.opnorm": "problem.opnorm.self_s",
    "problem.slack_op": "problem.slack_op.self_s",
    "problem.image": "problem.image.self_s",
    "bundle.solve": "bundle.solve.self_s",
    "bundle.model_update": "bundle.model_update.self_s",
    "bundle.residuals": "bundle.residuals.self_s",
    "bundle.state_io": "bundle.state_io.self_s",
    "bundle.warm_pad": "bundle.warm_pad.self_s",
    "sketch.update": "sketch.update.self_s",
    "sketch.reconstruct": "sketch.reconstruct.self_s",
    "rounding": "rounding.self_s",
    ROOT: "harness.self_s",
}

COUNT_METRICS = [
    "eigsolve.calls",
    "eigsolve.matvecs",
    "eigsolve.restarts",
    "eigsolve.unconverged",
    "subqp.altmax.passes",
    "subqp.ipm_quad.calls",
    "subqp.ipm_quad.newton",
    "subqp.ipm_quad.inexact",
    "subqp.ipm_eval.newton",
    "subqp.ipm_eval.inexact",
    "symlin.symm_kron.calls",
]


class Tracer:
    """In-memory span recorder with patchable wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` inside a span; ``on_result(counts, result)`` records counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(self.counts, out)
                return out
            finally:
                self._close(i)

        return wrapper

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the library's public functions at every module boundary the
        workloads cross."""
        self._patch_eigsolve()
        self.patch(bundle, "alternating_max", "subqp.altmax", _count("subqp.altmax.passes", "passes"))
        self.patch(subqp, "ipm_quad", "subqp.ipm_quad", _ipm_counts("subqp.ipm_quad", calls=True))
        self.patch(bundle, "ipm_eval", "subqp.ipm_eval", _ipm_counts("subqp.ipm_eval"))
        self.patch(subqp, "assemble_quad_coeffs", "subqp.coeffs")
        self.patch(bundle, "assemble_eval_coeffs", "subqp.coeffs")
        self.patch(subqp, "symm_kron", "symlin.symm_kron", _count("symlin.symm_kron.calls"))
        self.patch(subqp, "solve_spd", "symlin.solve_spd")
        for attr in ("parse_graph_mm", "parse_qaplib"):
            self.patch(problem, attr, "problem.parse")
        for attr in ("build_maxcut", "build_qap"):
            self.patch(problem, attr, "problem.build")
        self.patch(problem, "estimate_operator_norm", "problem.opnorm")
        self.patch(bundle, "dual_slack_operator", "problem.slack_op")
        for cls in (problem.DiagonalConstraints, problem.SparseConstraintFamilies):
            for attr in (
                "primal_image_lowrank",
                "primal_image_factor",
                "compressed_rows",
                "adjoint_inner_lowrank",
            ):
                self.patch(cls, attr, "problem.image")
        self.patch(bundle, "solve", "bundle.solve")
        self.patch(bundle, "model_update", "bundle.model_update")
        self.patch(bundle, "compute_residuals", "bundle.residuals")
        for attr in ("save_state", "load_state", "record_to_state", "state_from_record"):
            self.patch(bundle, attr, "bundle.state_io")
        self.patch(bundle, "warm_start_pad", "bundle.warm_pad")
        self.patch(sketch, "sketch_update", "sketch.update")
        self.patch(sketch, "reconstruct", "sketch.reconstruct")
        for attr in ("maxcut_round", "qap_round"):
            self.patch(rounding, attr, "rounding")

    def _patch_eigsolve(self) -> None:
        """The eigensolver wrapper hands the real ``lanczos_top`` an operator
        that counts the vectors it is applied to."""
        counts = self.counts
        real = bundle.lanczos_top

        def counted(op, *args, **kwargs):
            def matvec(v):
                counts["eigsolve.matvecs"] += 1
                return op.matvec(v)

            def matmat(block):
                counts["eigsolve.matvecs"] += block.shape[1]
                return op.matmat(block)

            wrapped = LinOp(dim=op.dim, matvec=matvec, matmat=matmat if op.matmat else None)
            res = real(wrapped, *args, **kwargs)
            counts["eigsolve.calls"] += 1
            counts["eigsolve.restarts"] += res.restarts
            counts["eigsolve.unconverged"] += int(not res.converged)
            return res

        self._patches.append((bundle, "lanczos_top", real))
        bundle.lanczos_top = self.wrap("eigsolve", counted)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros(dur.size)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        out: dict[str, float] = defaultdict(float)
        for name, t in zip(self.names, own.tolist()):
            out[name] += t
        return dict(out)

    def root_duration(self) -> float:
        roots = [i for i, p in enumerate(self.parents) if p < 0]
        return float(sum(self.ends[i] - self.starts[i] for i in roots))

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric; layers a workload never enters read 0."""
        own = self.self_times()
        unknown = set(own) - set(SELF_METRICS)
        if unknown:
            raise KeyError(f"spans without a metric: {sorted(unknown)}")
        out = {metric: own.get(name, 0.0) for name, metric in SELF_METRICS.items()}
        out.update({name: int(self.counts.get(name, 0)) for name in COUNT_METRICS})
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "parents": self.parents,
                    "starts": self.starts,
                    "ends": self.ends,
                    "counts": dict(self.counts),
                },
                fh,
            )


def _count(key: str, field: str | None = None):
    def on_result(counts, out):
        counts[key] += 1 if field is None else int(getattr(out, field))

    return on_result


def _ipm_counts(prefix: str, calls: bool = False):
    def on_result(counts, res):
        if calls:
            counts[prefix + ".calls"] += 1
        counts[prefix + ".newton"] += int(res.newton_iters)
        counts[prefix + ".inexact"] += int(not res.exact)

    return on_result
