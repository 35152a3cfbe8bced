"""Command-line front end: solve instances, round saved states, derive
perturbed sub-instances for warm starting.

Exit codes are a contract: 0 converged, 1 runtime error, 2 budget
exhausted, 64 usage error, 65 state/instance fingerprint mismatch.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
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
from .rounding import GapTracker, maxcut_round, qap_round

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

# per-problem defaults: bundle parameters and sketch ranks used throughout
# the experiments this tool reproduces
_DEFAULTS = {
    "maxcut": {"rho": 0.01, "beta": 0.25, "kc": 10, "kp": 1, "sketch_rank": 10},
    "qap": {"rho": 0.005, "beta": 0.25, "kc": 2, "kp": 0, "sketch_rank": None},
}
_COMMON = {
    "eps": 1e-3,
    "max_iters": 1000,
    "max_time": None,
    "seed": 0,
    "linf_check": False,
}


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
    ps.add_argument("--sketch-rank", type=int, default=None, help="0 stores the aggregate densely")
    ps.add_argument("--eps", type=float, default=None)
    ps.add_argument("--max-iters", type=int, default=None)
    ps.add_argument("--max-time", type=float, default=None)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--linf-check", action="store_true", default=None)
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


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _coerce(key, value, like):
    try:
        if isinstance(like, bool):
            return _BOOLEANS[value.lower()]
        if isinstance(like, int):
            return int(value)
        if isinstance(like, float) or like is None:
            return float(value)
    except (KeyError, ValueError):
        kind = ("a boolean (1/true/yes/on or 0/false/no/off)" if isinstance(like, bool)
                else "an integer" if isinstance(like, int) else "a number")
        raise UsageError(f"config key {key!r} must be {kind}, not {value!r}") from None
    return value


def _resolve_config(args, kind: str, instance) -> SolverConfig:
    settings = dict(_COMMON)
    settings.update(_DEFAULTS[kind])
    if settings["sketch_rank"] is None:  # assignment problems sketch at the block size
        settings["sketch_rank"] = instance.size
    if args.config:
        file_vals = _read_config_file(args.config)
        for key, val in file_vals.items():
            if key not in settings:
                raise UsageError(f"unknown config key {key!r}")
            settings[key] = _coerce(key, val, settings[key])
    for key in settings:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    n = instance.n if kind == "maxcut" else instance.size**2 + 1
    return SolverConfig(
        rho=settings["rho"],
        beta=settings["beta"],
        k_c=settings["kc"],
        k_p=settings["kp"],
        eps=settings["eps"],
        sketch_rank=min(int(settings["sketch_rank"]), n),
        max_iters=settings["max_iters"],
        max_time=settings["max_time"],
        seed=int(settings["seed"]),
        linf_check=bool(settings["linf_check"]),
    )


def _load_instance(kind: str, path):
    if kind == "maxcut":
        return parse_graph_mm(path)
    return parse_qaplib(path)


def _build_problem(kind: str, instance):
    if kind == "maxcut":
        return build_maxcut(instance)
    return build_qap(instance)


def _round_value(kind: str, instance, factor, optimum, tracker: Optional[GapTracker]):
    if kind == "maxcut":
        return maxcut_round(factor, instance).value
    res = qap_round(factor, instance, known_optimum=optimum)
    if tracker is not None and res.relative_gap is not None:
        tracker.update(res)
    return res.objective


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


def cmd_solve(args) -> int:
    instance = _load_instance(args.problem, args.input)
    prob = _build_problem(args.problem, instance)
    cfg = _resolve_config(args, args.problem, instance)

    init = None
    if args.warm_start:
        record = load_state(args.warm_start)
        try:
            init = state_from_record(record, prob)
        except FingerprintMismatch:
            if not args.mapping:
                print("state fingerprint does not match the instance", file=sys.stderr)
                return EXIT_FINGERPRINT
            prev = bundle.record_to_state(record)
            init = warm_start_pad(prev, prob, _load_mapping(args.mapping), sketch_seed=cfg.seed)

    tracker = GapTracker() if (args.problem == "qap" and args.optimum is not None) else None
    out_path = args.out or "metrics.csv"
    # summed over the iterations: eigensolve matvecs, leading-pair misses,
    # Newton steps, inexact proximal steps
    totals = [0, 0, 0, 0]
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)

        def callback(info):
            totals[0] += info.eig_matvecs
            totals[1] += not info.eig_leading_converged
            totals[2] += info.alt_newton
            totals[3] += not info.alt_exact
            rounded = ""
            if args.round:
                output = primal_output(info.model)
                rounded = f"{_round_value(args.problem, instance, output.factor, args.optimum, tracker):.10g}"
            r = info.residuals
            writer.writerow(
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

    if args.save_state:
        save_state(args.save_state, state, prob)

    obj = prob.unscale_objective(state.last_primal.cost_ip)
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
        val = _round_value(args.problem, instance, output.factor, args.optimum, tracker)
        print(f"rounded value: {val:.10g}")
        if tracker is not None and tracker.best is not None:
            print(f"best relative gap: {tracker.best:.6g}")
    print(
        "summary: eigensolve matvecs {}, leading-pair misses {}, Newton steps {}, "
        "inexact subproblem solves {}".format(*totals)
    )
    return EXIT_OK if state.status == "converged" else EXIT_BUDGET


def cmd_round(args) -> int:
    instance = _load_instance(args.problem, args.input)
    prob = _build_problem(args.problem, instance)
    record = load_state(args.state)
    try:
        state = state_from_record(record, prob)
    except FingerprintMismatch:
        print("state fingerprint does not match the instance", file=sys.stderr)
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
        sub = g.subgraph(keep)
        write_graph_mm(sub, args.out_instance)
        mapping = _maxcut_mapping(keep)
        print(f"kept {keep} of {g.n} vertices")
    else:
        q = parse_qaplib(args.input)
        if q.size < 2:
            raise UsageError("instance too small to shrink")
        sub = q.shrink()
        write_qaplib(sub, args.out_instance)
        mapping = _qap_mapping(sub, q)
        print(f"kept {sub.size} of {q.size} assignment slots")
    with open(args.out_mapping, "w") as fh:
        json.dump(mapping, fh)
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


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
