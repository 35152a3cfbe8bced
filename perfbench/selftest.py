"""Fast self-test of the benchmark harness on tiny instances.

    python3 perfbench/selftest.py

Runs every workload's pipeline, untraced and traced, on tiny instances of
the same shape through the same code as the benchmark, and checks the
certificate stop, the operation accounting, the independent checks and
the span accounting.  Exits 0 when every check passes.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import types  # noqa: E402

import run  # noqa: E402

run._load_library()

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def _fake_info(f_y, c_x, a_x, lam):
    primal = types.SimpleNamespace(cost_ip=c_x, constr_image=a_x)
    return types.SimpleNamespace(t=0, f_y=f_y, primal=primal, state=types.SimpleNamespace(lam_y=lam))


def test_certificate_stop() -> None:
    # row 0 is an equality with b = 1, row 1 an inequality with b = 0.5
    prob = types.SimpleNamespace(b=np.array([1.0, 0.5]), ineq_idx=np.array([1]))
    cases = [
        ((1.0002, 1.0, [1.0, 0.2], -1e-6), True),  # gap 1e-4, feasible, dual feasible
        ((1.0100, 1.0, [1.0, 0.2], 0.0), False),  # gap 5e-3
        ((1.0, 1.0, [1.1, 0.2], 0.0), False),  # equality row off its right-hand side
        ((1.0, 1.0, [1.0, 0.6], 0.0), False),  # inequality row above its bound
        ((1.0, 1.0, [1.0, 0.2], 1e-2), False),  # lambda_max(C - A*y) = 1e-2
    ]
    for (f_y, c_x, a_x, lam), stops in cases:
        cert = workloads.Certifier(prob, 1e-3)
        try:
            cert(_fake_info(f_y, c_x, np.array(a_x), lam))
            stopped = False
        except workloads.CertificateReached:
            stopped = True
        assert stopped == stops, (f_y, c_x, a_x, lam)
    # the gap is f(y) - <C,X>: the upper bound above the primal value
    gap, _, _ = workloads.certificate(prob, 1.0, 1.01, np.array([1.0, 0.2]), 0.0)
    assert gap < 0


def test_span_accounting() -> None:
    tracer = spans.Tracer()
    leaf = tracer.wrap("rounding", lambda: sum(range(1000)))
    mid = tracer.wrap("bundle.solve", lambda: [leaf() for _ in range(3)])
    with tracer.span(spans.ROOT):
        mid()
        leaf()
    own = tracer.self_times()
    assert abs(sum(own.values()) - tracer.root_duration()) < 1e-9
    assert len(tracer.names) == 6 and tracer.parents[:3] == [-1, 0, 1]


def test_workloads() -> None:
    for workload in run.WORKLOADS:
        for trace in (False, True):
            lines = []
            result = run.run(workload, seed=3, seconds=0, trace=trace, small=True, log=lines.append)
            expected = len(workloads.OPERATIONS[workload])
            ok = result["correct"] and result["failed"] == 0 and result["attempted"] == expected
            assert ok, (workload, trace, result, lines)
            metrics = result["metrics"]
            if trace:
                assert metrics["eigsolve.calls"]["value"] > 0
                assert metrics["eigsolve.matvecs"]["value"] > 0
                assert any("self times sum to" in line for line in lines)
            else:
                assert all(m["value"] > 0 for m in metrics.values()), (workload, metrics)
            print(f"ok {workload} trace={int(trace)}: {lines[-1]}")


def test_layout_does_not_change_problem() -> None:
    """Two seeds give different files that parse to the same problem."""
    import instances

    base = run.HERE / "_work"
    base.mkdir(exist_ok=True)
    texts = []
    for seed in (1, 2):
        out = base / f"selftest-layout-{seed}"
        instances.generate("maxcut-100k", seed, out, small=True)
        texts.append((out / "graph-0.mtx").read_text())
        for f in out.iterdir():
            f.unlink()
        out.rmdir()
    assert texts[0] != texts[1]
    assert sorted(texts[0].splitlines()) == sorted(texts[1].splitlines())


def main() -> int:
    test_certificate_stop()
    test_span_accounting()
    test_layout_does_not_change_problem()
    test_workloads()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
