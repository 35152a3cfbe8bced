"""Time-to-certificate benchmark for the spectral bundle solver.

    python3 perfbench/run.py --workload maxcut-1k-arrivals --seed 1 --seconds 10 --trace 0

Builds the library from the checkout's ``src/`` (nothing is installed),
generates the workload's instance from the seed in a child process, then
runs whole rounds of the workload until ``--seconds`` have passed (at least
one).  With ``--trace 0`` it reports the end-to-end metrics, medians over
the rounds; with ``--trace 1`` it wraps the library's public functions and
reports the per-layer metrics instead.  Every round's outputs are checked
against independent computations (``checks.py``).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"

WORKLOADS = ("maxcut-1k-arrivals", "qap-12", "maxcut-100k")

# set-up passes per round: the first runs inside the pipeline; replays of
# the same set-up calls on the same inputs follow it, at least
# SETUP_MIN_REPLAYS and until SETUP_REPLAY_S seconds are spent; setup_s is
# the median of all passes
SETUP_MIN_REPLAYS = 4
SETUP_REPLAY_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "iters": "count",
    "warm_solve_s": "s",
    "warm_iters": "count",
    "total_s": "s",
    "peak_rss_mb": "MB",
}


def _load_library():
    """Import the checkout's own library, or exit without a result."""
    if not (SRC / "specbundle" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'specbundle'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import specbundle

    if Path(specbundle.__file__).resolve().parent != (SRC / "specbundle").resolve():
        print(f"error: imported specbundle from {specbundle.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return specbundle


def _environment(seed: int) -> str:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (
        f"machine: {cpu}, {os.cpu_count()} CPUs; python {platform.python_version()}, "
        f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
        f"{blas.get('name')} {blas.get('version')}, BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}; "
        f"seed {seed}"
    )


def generate(workload: str, seed: int, workdir: Path, small: bool = False) -> dict:
    """Write the instance files in a child process, outside every timed
    region and outside this process's peak memory."""
    cmd = [sys.executable, str(HERE / "instances.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(workdir)]
    if small:
        cmd.append("--small")
    subprocess.run(cmd, check=True, timeout=170)
    return json.loads((workdir / "manifest.json").read_text())


def _end_to_end(rr, log) -> dict:
    """End-to-end values of an untraced round; replays the set-up first."""
    passes = [rr.setup_s]
    while len(passes) <= SETUP_MIN_REPLAYS or sum(passes[1:]) < SETUP_REPLAY_S:
        passes.append(rr.replay_setup())
    log(f"setup passes (s): {', '.join(f'{p:.4f}' for p in passes)}")
    return {
        "setup_s": statistics.median(passes),
        "solve_s": rr.solve_s,
        "iters": rr.iters,
        "warm_solve_s": rr.warm_solve_s,
        "warm_iters": rr.warm_iters,
        "total_s": rr.total_s,
        "peak_rss_mb": rr.peak_rss_mb,
    }


def _per_layer(tracer, log) -> tuple[dict, bool]:
    """Per-layer values of a traced round, and whether its self times
    account for the root span."""
    values = tracer.layer_metrics()
    self_sum = sum(v for k, v in values.items() if k.endswith("self_s"))
    root = tracer.root_duration()
    values["trace.total_s"] = root
    log(f"traced root span {root:.6f} s, self times sum to {self_sum:.6f} s, {len(tracer.names)} spans")
    accounted = abs(self_sum - root) <= 1e-6 * max(root, 1.0)
    if not accounted:
        log("error: self times do not account for the root span")
    return values, accounted


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False, log=print) -> dict:
    """Run whole rounds for ``seconds`` and return the result object."""
    import checks
    import spans
    import workloads

    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    rounds = []
    correct = True
    attempted = failed = 0
    try:
        manifest = generate(workload, seed, workdir, small=small)
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            if trace:
                tracer = spans.Tracer()
                tracer.install()
                try:
                    rr = workloads.run_round(manifest, workdir, tracer=tracer)
                finally:
                    tracer.restore()
                values, accounted = _per_layer(tracer, log)
                correct = correct and accounted
                out_dir = HERE / "_out"
                out_dir.mkdir(exist_ok=True)
                tracer.dump(out_dir / f"trace-{workload}-{seed}.json")
            else:
                rr = workloads.run_round(manifest, workdir)
                values = _end_to_end(rr, log)
            try:
                check_failures, made = checks.check_round(rr, manifest, workdir)
            except Exception as exc:  # a check that cannot run fails the round
                reason = f"checks raised {type(exc).__name__}: {exc}"
                check_failures, made = {label: [reason] for label in rr.operations}, 0
            for label, reasons in check_failures.items():
                correct = False
                rr.failed.setdefault(label, "; ".join(reasons))
            for label, reason in rr.failed.items():
                log(f"operation {label} failed: {reason}")
            log(f"round {len(rounds) + 1}: {len(rr.operations)} operations, {len(rr.failed)} failed, "
                f"{made} checks, {len(check_failures)} operations failing a check")
            attempted += len(rr.operations)
            failed += len(rr.failed)
            rounds.append(values)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for name in rounds[0]:
        unit = END_TO_END.get(name) or ("s" if name.endswith("_s") else "count")
        metrics[name] = {"value": statistics.median(r[name] for r in rounds), "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _load_library()
    print(_environment(args.seed), flush=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 log=lambda msg: print(msg, flush=True))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
