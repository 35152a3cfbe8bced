"""The three workload pipelines, driven through the library's public calls.

Every certified solve is stopped by the benchmark's own certificate check,
made at the end of each outer iteration from the iterate's tracked values
(see ``Certifier``).  The program's own ``eps`` is set far below every
target, so its stopping rule never ends a solve first: that rule reads a
suboptimality of the wrong sign and reports convergence early.

Each solve is one operation.  Each pipeline declares its operations up
front, so every round attempts the same ones even when one of them fails.
"""
from __future__ import annotations

import contextlib
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from specbundle import bundle, problem, rounding
from spans import ROOT

# the CLI's per-problem defaults (``specbundle.cli``); the QAP sketch rank is
# the assignment size, as the CLI sets it
MAXCUT_SETTINGS = dict(rho=0.01, beta=0.25, k_c=10, k_p=1, sketch_rank=10)
QAP_SETTINGS = dict(rho=0.005, beta=0.25, k_c=2, k_p=0)
SOLVER_SEED = 0

# far below every target, so only the benchmark's certificate ends a solve
PROGRAM_EPS = 1e-12

# certificate targets and iteration caps; a solve that reaches its cap
# without a certificate is a failed operation
ARRIVALS_EPS = 1e-3
ARRIVALS_COLD_CAP = 1500
ARRIVALS_WARM_CAP = 600
QAP_COLD_EPS = 2e-1
QAP_WARM_EPS = 1e-1
QAP_CAP = 400
SCALE_COLD_ITERS = 2
SCALE_WARM_ITERS = 2

OPERATIONS = {
    "maxcut-1k-arrivals": ["cold"] + [f"arrival-{i}" for i in range(1, 6)],
    "qap-12": ["cold", "resume"],
    "maxcut-100k": ["cold", "resume"],
}


class CertificateReached(Exception):
    """Raised from the solve callback to end a solve at its certificate."""


def certificate(prob, f_y: float, c_x: float, a_x: np.ndarray, lam: float) -> tuple[float, float, float]:
    """(gap, infeas, dual_feas) of an iterate, in the problem's scaled units.

    gap = (f(y) - <C,X>)/(1 + |<C,X>|) with f(y) the dual upper bound;
    infeas = ||A(X) - proj_K(A(X))||/(1 + ||b||), where K holds b on
    equality rows and everything at most b on inequality rows;
    dual_feas = lambda_max(C - A*(y)).
    """
    b = prob.b
    proj = b.copy()
    idx = prob.ineq_idx
    proj[idx] = np.minimum(a_x[idx], b[idx])
    gap = (f_y - c_x) / (1.0 + abs(c_x))
    infeas = float(np.linalg.norm(a_x - proj)) / (1.0 + float(np.linalg.norm(b)))
    return float(gap), infeas, float(lam)


class Certifier:
    """Solve callback: evaluates the certificate after every outer iteration
    and ends the solve once all three measures are at most ``eps``.  With
    ``eps=None`` it only follows the iterates (fixed-budget solves)."""

    def __init__(self, prob, eps: Optional[float]):
        self.prob = prob
        self.eps = eps
        self.last = None
        self.iters = 0

    def __call__(self, info) -> None:
        self.last = info
        self.iters = info.t + 1
        if self.eps is None:
            return
        measures = certificate(
            self.prob, info.f_y, info.primal.cost_ip, info.primal.constr_image, info.state.lam_y
        )
        if max(measures) <= self.eps:
            raise CertificateReached


@dataclass
class Evidence:
    """What one solve produced, kept for the checks made after the round."""

    label: str
    prob: object
    n: int
    eps: Optional[float]
    certified: bool
    y: np.ndarray
    f_y: float
    lam_y: float
    c_x: float
    a_x: np.ndarray
    tr_x: float
    factor: np.ndarray
    lams: np.ndarray
    rounded: object = None


@dataclass
class RoundResult:
    workload: str
    operations: list[str]
    failed: dict[str, str] = field(default_factory=dict)
    evidence: list[Evidence] = field(default_factory=list)
    parsed: list[tuple[int, object]] = field(default_factory=list)  # (stage, instance)
    saved_states: list[tuple[object, Path]] = field(default_factory=list)  # (state, file)
    setup_steps: list[tuple[object, tuple, dict]] = field(default_factory=list)
    setup_s: float = 0.0
    solve_s: float = 0.0
    iters: int = 0
    warm_solve_s: float = 0.0
    warm_iters: int = 0
    total_s: float = 0.0
    peak_rss_mb: float = 0.0

    def setup(self, fn, *args, **kwargs):
        """Run one set-up step, timed, and record it for the set-up replays."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.setup_s += time.perf_counter() - t0
        self.setup_steps.append((fn, args, kwargs))
        return out

    def replay_setup(self) -> float:
        """Time every recorded set-up step once more, on the same inputs."""
        total = 0.0
        for fn, args, kwargs in self.setup_steps:
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            total += time.perf_counter() - t0
            del out
        return total


def solver_config(settings: dict, max_iters: int, sketch_rank: Optional[int] = None) -> bundle.SolverConfig:
    kw = dict(settings)
    if sketch_rank is not None:
        kw["sketch_rank"] = sketch_rank
    return bundle.SolverConfig(eps=PROGRAM_EPS, max_iters=max_iters, seed=SOLVER_SEED, **kw)


def run_solve(rr: RoundResult, label: str, prob, cfg, eps, init=None, wrap=None, warm=False):
    """One operation: solve to the certificate (or to the budget when
    ``eps`` is None), timed, and keep its evidence.  Returns the final state
    and primal output.  ``wrap`` wraps the certificate callback (tracing)."""
    cert = Certifier(prob, eps)
    callback = wrap(cert) if wrap is not None else cert
    t0 = time.perf_counter()
    try:
        state, output = bundle.solve(prob, cfg, init=init, callback=callback)
        certified = False
    except CertificateReached:
        state = cert.last.state
        output = bundle.primal_output(cert.last.model)
        certified = True
    dt = time.perf_counter() - t0
    if warm:
        rr.warm_solve_s += dt
        rr.warm_iters += cert.iters
    else:
        rr.solve_s += dt
        rr.iters += cert.iters
    info = cert.last
    if info is None:
        raise RuntimeError(f"{label}: solve ended before its first iteration")
    rr.evidence.append(
        Evidence(
            label=label,
            prob=prob,
            n=prob.n,
            eps=eps,
            certified=certified,
            y=state.y.copy(),
            f_y=float(state.f_y),
            lam_y=float(state.lam_y),
            c_x=float(info.primal.cost_ip),
            a_x=info.primal.constr_image.copy(),
            tr_x=float(info.primal.trace),
            factor=output.factor,
            lams=output.lams,
        )
    )
    if eps is not None and not certified:
        rr.failed[label] = f"no certificate at eps={eps:g} within {cfg.max_iters} iterations"
    elif eps is None and cert.iters != cfg.max_iters:
        rr.failed[label] = f"budget solve ran {cert.iters} of {cfg.max_iters} iterations"
    return state, output


def _arrivals(rr: RoundResult, manifest: dict, workdir: Path, wrap) -> None:
    files = [workdir / f for f in manifest["files"]]
    sizes = manifest["sizes"]
    g = rr.setup(problem.parse_graph_mm, files[0])
    rr.parsed.append((0, g))
    prob = rr.setup(problem.build_maxcut, g)
    state, output = run_solve(
        rr, "cold", prob, solver_config(MAXCUT_SETTINGS, ARRIVALS_COLD_CAP), ARRIVALS_EPS,
        wrap=wrap,
    )
    rr.evidence[-1].rounded = rounding.maxcut_round(output.factor, g)
    for stage in range(1, len(files)):
        path = workdir / f"state-{stage - 1}.bin"
        rr.setup(bundle.save_state, path, state, prob)
        rec = rr.setup(bundle.load_state, path)
        prev = rr.setup(bundle.record_to_state, rec)
        rr.saved_states.append((state, path))
        g = rr.setup(problem.parse_graph_mm, files[stage])
        rr.parsed.append((stage, g))
        prob = rr.setup(problem.build_maxcut, g)
        kept = np.arange(sizes[stage - 1], dtype=np.int64)  # prefix mapping, as `perturb` writes it
        init = rr.setup(
            bundle.warm_start_pad, prev, prob, bundle.Mapping(kept, kept), sketch_seed=SOLVER_SEED
        )
        state, output = run_solve(
            rr, f"arrival-{stage}", prob, solver_config(MAXCUT_SETTINGS, ARRIVALS_WARM_CAP),
            ARRIVALS_EPS, init=init, wrap=wrap, warm=True,
        )
        rr.evidence[-1].rounded = rounding.maxcut_round(output.factor, g)


def _resume(rr: RoundResult, state, prob, path: Path):
    """Save the state, read it back and rebuild it for the same problem,
    as ``solve --save-state`` followed by ``solve --warm-start`` does."""
    rr.setup(bundle.save_state, path, state, prob)
    rec = rr.setup(bundle.load_state, path)
    loaded = rr.setup(bundle.state_from_record, rec, prob)
    rr.saved_states.append((state, path))
    return loaded


def _qap(rr: RoundResult, manifest: dict, workdir: Path, wrap) -> None:
    q = rr.setup(problem.parse_qaplib, workdir / manifest["files"][0])
    rr.parsed.append((0, q))
    prob = rr.setup(problem.build_qap, q)
    cfg = solver_config(QAP_SETTINGS, QAP_CAP, sketch_rank=q.size)
    state, _ = run_solve(rr, "cold", prob, cfg, QAP_COLD_EPS, wrap=wrap)
    init = _resume(rr, state, prob, workdir / "state.bin")
    _, output = run_solve(rr, "resume", prob, cfg, QAP_WARM_EPS, init=init, wrap=wrap, warm=True)
    rr.evidence[-1].rounded = rounding.qap_round(output.factor, q)


def _scale(rr: RoundResult, manifest: dict, workdir: Path, wrap) -> None:
    g = rr.setup(problem.parse_graph_mm, workdir / manifest["files"][0])
    rr.parsed.append((0, g))
    prob = rr.setup(problem.build_maxcut, g)
    state, _ = run_solve(rr, "cold", prob, solver_config(MAXCUT_SETTINGS, SCALE_COLD_ITERS), None, wrap=wrap)
    init = _resume(rr, state, prob, workdir / "state.bin")
    _, output = run_solve(
        rr, "resume", prob, solver_config(MAXCUT_SETTINGS, SCALE_WARM_ITERS), None,
        init=init, wrap=wrap, warm=True,
    )
    rr.evidence[-1].rounded = rounding.maxcut_round(output.factor, g)


PIPELINES = {"maxcut-1k-arrivals": _arrivals, "qap-12": _qap, "maxcut-100k": _scale}


def run_round(manifest: dict, workdir: Path, tracer=None) -> RoundResult:
    """One whole round of the workload: from reading the first file to the
    last rounded answer.  An exception fails the operation that raised it
    and every operation after it."""
    workload = manifest["workload"]
    rr = RoundResult(workload=workload, operations=list(OPERATIONS[workload]))
    wrap = None
    scope = contextlib.nullcontext()
    if tracer is not None:
        wrap = lambda cert: tracer.wrap(ROOT, cert)  # noqa: E731
        scope = tracer.span(ROOT)
    t0 = time.perf_counter()
    try:
        with scope:
            PIPELINES[workload](rr, manifest, workdir, wrap)
    except Exception as exc:  # a failed operation is counted, not fatal to the run
        reason = f"{type(exc).__name__}: {exc}"
        done = {e.label for e in rr.evidence}
        pending = [label for label in rr.operations if label not in done]
        for label in pending or rr.operations[-1:]:
            rr.failed.setdefault(label, reason)
    rr.total_s = time.perf_counter() - t0
    rr.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rr
