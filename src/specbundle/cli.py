"""Command-line front end: solve instances, round saved states, derive
perturbed sub-instances for warm starting.

Exit codes are a contract: 0 converged, 1 runtime error, 2 budget
exhausted, 64 usage error, 65 state/instance fingerprint mismatch.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import fields, replace
from typing import Optional

import numpy as np

from . import bundle
from .bundle import (
    FingerprintMismatch,
    Mapping,
    SolverConfig,
    load_state,
    primal_output,
    save_state,
    solve,
    state_from_record,
    warm_start_pad,
)
from .problem import (
    ParseError,
    QapInstance,
    build_maxcut,
    build_qap,
    parse_graph_mm,
    parse_qaplib,
    qap_submatrix_constraint_map,
    write_graph_mm,
    write_qaplib,
)
from .rounding import maxcut_round, qap_round

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64
EXIT_FINGERPRINT = 65

CSV_HEADER = [
    "iter",
    "time_s",
    "f_y",
    "rel_subopt",
    "rel_infeas",
    "linf_infeas",
    "dual_feas",
    "step",
    "rounded",
]

# the phases of IterationInfo's secs_* fields, with the labels the summary
# prints their totals under
_PHASES = {
    "prox": "proximal step",
    "eig": "eigensolve",
    "model_val": "model value",
    "model_update": "model update",
    "residuals": "residuals",
}

# config keys and flags are SolverConfig's field names, except these two
_ALIASES = {"kc": "k_c", "kp": "k_p"}
_KEYS = [f.name for f in fields(SolverConfig) if f.name not in _ALIASES.values()] + list(_ALIASES)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="specbundle", description=__doc__)
    sub = p.add_subparsers(dest="command", parser_class=_Parser)

    ps = sub.add_parser("solve", help="solve an instance and emit per-iteration metrics")
    ps.add_argument("--problem", required=True, choices=["maxcut", "qap"])
    ps.add_argument("--input", required=True)
    ps.add_argument("--config", default=None, help="key=value file, overridden by flags")
    ps.add_argument(
        "--rho", type=float, default=None, help="initial proximal weight; the solver adapts it"
    )
    ps.add_argument("--beta", type=float, default=None)
    ps.add_argument("--kc", type=int, default=None)
    ps.add_argument("--kp", type=int, default=None)
    ps.add_argument(
        "--sketch-rank", type=int, default=None,
        help="at least 1; clamped to n, where the primal output is exact",
    )
    ps.add_argument("--eps", type=float, default=None)
    ps.add_argument("--max-iters", type=int, default=None)
    ps.add_argument("--max-time", type=float, default=None)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--warm-start", default=None, help="state file to start from")
    ps.add_argument("--mapping", default=None, help="index mapping for cross-size warm starts")
    ps.add_argument("--save-state", default=None)
    ps.add_argument("--round", action="store_true", help="round the primal every iteration")
    ps.add_argument("--optimum", type=float, default=None, help="known optimum for gap reporting")
    ps.add_argument("--out", default=None, help="metrics CSV path")

    pr = sub.add_parser("round", help="round the primal matrix of a saved state")
    pr.add_argument("--problem", required=True, choices=["maxcut", "qap"])
    pr.add_argument("--input", required=True)
    pr.add_argument("--state", required=True)
    pr.add_argument("--optimum", type=float, default=None)

    pp = sub.add_parser("perturb", help="emit a shrunken instance plus an index mapping")
    pp.add_argument("--problem", required=True, choices=["maxcut", "qap"])
    pp.add_argument("--input", required=True)
    pp.add_argument("--fraction", type=float, default=0.01, help="fraction of vertices to drop")
    pp.add_argument("--out-instance", required=True)
    pp.add_argument("--out-mapping", required=True)
    return p


def _read_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {raw.strip()!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


def _coerce(key, value, like):
    try:
        return int(value) if isinstance(like, int) else float(value)
    except ValueError:
        kind = "an integer" if isinstance(like, int) else "a number"
        raise UsageError(f"config key {key!r} must be {kind}, not {value!r}") from None


def _resolve_config(args, kind: str, instance) -> SolverConfig:
    """The kind's default settings, overridden by the config file, then by
    the flags.  A file's value is read as the type of the setting it
    replaces (a number where that is None)."""
    cfg = bundle.default_config(kind, instance.size if kind == "qap" else instance.n)
    settings = {}
    if args.config:
        for key, val in _read_config_file(args.config).items():
            if key not in _KEYS:
                raise UsageError(f"unknown config key {key!r} (set to {val!r})")
            name = _ALIASES.get(key, key)
            settings[name] = _coerce(key, val, getattr(cfg, name))
    for key in _KEYS:
        if getattr(args, key) is not None:
            settings[_ALIASES.get(key, key)] = getattr(args, key)
    return replace(cfg, **settings)


def _load_instance(kind: str, path):
    if kind == "maxcut":
        return parse_graph_mm(path)
    return parse_qaplib(path)


def _build_problem(kind: str, instance):
    if kind == "maxcut":
        return build_maxcut(instance)
    return build_qap(instance)


def _round_value(kind: str, instance, factor, optimum) -> tuple[float, Optional[float]]:
    """The rounded objective, and its relative gap to ``optimum`` (QAP only)."""
    if kind == "maxcut":
        return maxcut_round(factor, instance).value, None
    res = qap_round(factor, instance, known_optimum=optimum)
    return res.objective, res.relative_gap


def _check_optimum(args, rounds: bool) -> None:
    """``--optimum`` only scales the relative gap of a QAP rounding; a value
    that nothing reads, or that the gap cannot divide by, is a usage error."""
    if args.optimum is None:
        return
    if args.problem != "qap":
        raise UsageError("--optimum applies to --problem qap only: a cut reports no gap")
    if not rounds:
        raise UsageError("--optimum needs --round: the gap is that of the rounded assignment")
    if args.optimum == 0 or not math.isfinite(args.optimum):
        raise UsageError("--optimum must be finite and nonzero: the relative gap divides by it")


def _is_index(entry) -> bool:
    # a JSON integer, or a float with an integral value such as 3.0; a bool
    # is not an index
    if isinstance(entry, float) and entry.is_integer():
        entry = int(entry)
    return type(entry) is int and 0 <= entry < 2**63


def _load_mapping(path) -> Mapping:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("mapping file must be a JSON object of 'vertex_map' and 'constraint_map'")
    maps = {}
    for key in ("vertex_map", "constraint_map"):
        entries = data.get(key)
        if not isinstance(entries, list) or not all(map(_is_index, entries)):
            raise ValueError(f"mapping {key!r} must be a list of non-negative integer indices")
        maps[key] = np.array([int(e) for e in entries], dtype=np.int64)
    return Mapping(**maps)


@contextlib.contextmanager
def _early_output(path, mode: str = "", newline=None):
    """``path`` opened for writing before the work whose result goes there,
    so that a path that cannot be written fails fast, or None for no path.
    An existing file is opened for appending and kept as it is: it may be
    an input of the same run, so the writer empties it (``_emptied``) only
    when the result is ready.  A file created here is removed again if the
    work fails or writes nothing to it."""
    if not path:
        yield None
        return
    try:
        fh, created = open(path, "x" + mode, newline=newline), True
    except FileExistsError:
        fh, created = open(path, "a" + mode, newline=newline), False
    written = False
    try:
        with fh:
            yield fh
            written = fh.tell() > 0
    finally:
        if created and not written:
            os.remove(path)


def _emptied(fh):
    """A file from ``_early_output``, cut to length 0 if it has a length (a
    device such as /dev/null cannot be cut)."""
    if fh.tell():
        fh.truncate(0)
    return fh


def cmd_solve(args) -> int:
    _check_optimum(args, args.round)
    with (
        _early_output(args.save_state, "b") as state_fh,
        _early_output(args.out or "metrics.csv", newline="") as out_fh,
    ):
        return _solve(args, state_fh, out_fh)


def _solve(args, state_fh, out_fh) -> int:
    instance = _load_instance(args.problem, args.input)
    prob = _build_problem(args.problem, instance)
    cfg = _resolve_config(args, args.problem, instance)

    init = None
    if args.warm_start:
        record = load_state(args.warm_start)
        try:
            init = state_from_record(record, prob)
        except FingerprintMismatch as exc:
            if not args.mapping:
                print(exc, file=sys.stderr)
                return EXIT_FINGERPRINT
            prev = bundle.record_to_state(record)
            init = warm_start_pad(prev, prob, _load_mapping(args.mapping), sketch_seed=cfg.seed)

    best_gap = math.inf  # the least relative gap of the roundings, with --optimum
    # summed over the iterations: eigensolve matvecs, leading-pair misses
    # (decision exits left out), Newton steps, inexact proximal steps; then
    # decision exits and the seconds of each phase
    totals = [0, 0, 0, 0]
    exits = 0
    phases = dict.fromkeys(_PHASES, 0.0)
    writer = None

    def csv_writer():
        # the metrics file is replaced only once the solve has passed its
        # start-state checks: at its first iteration, or at its end
        nonlocal writer
        if writer is None:
            writer = csv.writer(_emptied(out_fh))
            writer.writerow(CSV_HEADER)
        return writer

    def callback(info):
        nonlocal exits, best_gap
        totals[0] += info.eig_matvecs
        totals[1] += not (info.eig_leading_converged or info.eig_decided)
        totals[2] += info.alt_newton
        totals[3] += not info.alt_exact
        exits += info.eig_decided
        for name in phases:
            phases[name] += getattr(info, f"secs_{name}")
        rounded = ""
        if args.round:
            output = primal_output(info.model)
            value, gap = _round_value(args.problem, instance, output.factor, args.optimum)
            rounded = f"{value:.10g}"
            if gap is not None:
                best_gap = min(best_gap, gap)
        r = info.residuals
        csv_writer().writerow(
            [
                info.t,
                f"{info.elapsed:.6f}",
                f"{info.f_y:.12g}",
                f"{r.rel_subopt:.6e}",
                f"{r.rel_infeas:.6e}",
                f"{r.linf_infeas:.6e}",
                f"{r.dual_feas:.6e}",
                info.step,
                rounded,
            ]
        )

    state, output = solve(prob, cfg, init=init, callback=callback)
    csv_writer()  # the header alone when the solve ran no iteration

    if state_fh is not None:
        save_state(_emptied(state_fh), state, prob)

    obj = prob.unscale_objective(bundle.certified_primal(prob, state.model).cost_ip)
    print(f"status: {state.status}")
    # the state's step counts run over every solve it went through, and
    # solve leaves init as it was; the summary reports this solve's
    descent, null = state.descent_steps, state.null_steps
    if init is not None:
        descent, null = descent - init.descent_steps, null - init.null_steps
    print(f"iterations: {state.iterations} (descent {descent}, null {null})")
    print(f"objective (original units): {obj:.10g}")
    r = state.residuals
    print(
        f"rel_subopt: {r.rel_subopt:.3e}  rel_infeas: {r.rel_infeas:.3e}  "
        f"linf_infeas: {r.linf_infeas:.3e}  dual_feas: {r.dual_feas:.3e}"
    )
    if args.round:
        value, gap = _round_value(args.problem, instance, output.factor, args.optimum)
        print(f"rounded value: {value:.10g}")
        if gap is not None:
            print(f"best relative gap: {min(best_gap, gap):.6g}")
    print(
        "summary: eigensolve matvecs {}, leading-pair misses {}, Newton steps {}, "
        "inexact subproblem solves {}".format(*totals)
    )
    print(
        "phases (s): "
        + ", ".join(f"{_PHASES[name]} {secs:.3f}" for name, secs in phases.items())
        + f"; decision exits {exits}"
    )
    return EXIT_OK if state.status == "converged" else EXIT_BUDGET


def cmd_round(args) -> int:
    _check_optimum(args, rounds=True)
    instance = _load_instance(args.problem, args.input)
    prob = _build_problem(args.problem, instance)
    record = load_state(args.state)
    try:
        state = state_from_record(record, prob)
    except FingerprintMismatch as exc:
        print(exc, file=sys.stderr)
        return EXIT_FINGERPRINT
    output = primal_output(state.model)
    if args.problem == "maxcut":
        cut = maxcut_round(output.factor, instance)
        print(f"cut value: {cut.value:.10g}")
        print("assignment: " + "".join("+" if s > 0 else "-" for s in cut.assignment))
    else:
        res = qap_round(output.factor, instance, known_optimum=args.optimum)
        print(f"objective: {res.objective:.10g}")
        print("permutation: " + " ".join(str(int(p)) for p in res.perm))
        if res.relative_gap is not None:
            print(f"relative gap: {res.relative_gap:.6g}")
    return EXIT_OK


def _maxcut_mapping(keep: int) -> dict:
    idx = list(range(keep))
    return {"kind": "maxcut", "vertex_map": idx, "constraint_map": idx}


def _qap_mapping(sub: QapInstance, full: QapInstance) -> dict:
    n_sub, n_full = sub.size, full.size
    vertex_map = [0] + [
        1 + i * n_full + k for i in range(n_sub) for k in range(n_sub)
    ]
    constraint_map = qap_submatrix_constraint_map(full, n_sub).tolist()
    return {"kind": "qap", "vertex_map": vertex_map, "constraint_map": constraint_map}


def cmd_perturb(args) -> int:
    if not 0 < args.fraction < 1:
        raise UsageError("--fraction must lie strictly between 0 and 1")
    if args.problem == "maxcut":
        g = parse_graph_mm(args.input)
        keep = g.n - math.ceil(args.fraction * g.n)
        if keep < 1:
            raise UsageError("perturbation drops every vertex")
    else:
        q = parse_qaplib(args.input)
        if q.size < 2:
            raise UsageError("instance too small to shrink")
    with _early_output(args.out_mapping) as fh:
        if args.problem == "maxcut":
            write_graph_mm(g.subgraph(keep), args.out_instance)
            mapping = _maxcut_mapping(keep)
            print(f"kept {keep} of {g.n} vertices")
        else:
            sub = q.shrink()
            write_qaplib(sub, args.out_instance)
            mapping = _qap_mapping(sub, q)
            print(f"kept {sub.size} of {q.size} assignment slots")
        json.dump(mapping, _emptied(fh))
    print(f"instance: {args.out_instance}")
    print(f"mapping: {args.out_mapping}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "round":
            return cmd_round(args)
        return cmd_perturb(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        # a path argument that names no readable (or writable) file
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        # an instance whose size line declares more than memory holds
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
