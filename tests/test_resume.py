"""The resume contract: a saved state is the whole loop state.  Solving N
iterations gives bit for bit what solving N1, saving, loading and solving
N - N1 more gives, through the library and through the CLI.  Files of the
older format versions 1 and 2 resume as the current version does."""
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from _oracles import proximal_slack, save_state_frozen
from conftest import random_graph
from specbundle.bundle import (
    _HEADER,
    SolverConfig,
    load_state,
    save_state,
    solve,
    state_from_record,
)
from specbundle.cli import main
from specbundle.problem import QapInstance, build_maxcut, build_qap, write_graph_mm, write_qaplib


def six_slot_qap() -> QapInstance:
    """``perfbench/instances.random_qap(6, 10, 5)``: symmetric integer
    weights and distances in [0, 18] with zero diagonals."""
    rng = np.random.default_rng(5)
    mats = []
    for _ in range(2):
        a = rng.integers(0, 10, (6, 6))
        a = a + a.T
        np.fill_diagonal(a, 0)
        mats.append(a.astype(float))
    return QapInstance(*mats)


def _case(kind):
    """Problem, config (no convergence before the budget), N and the splits."""
    if kind == "qap":
        # the CLI's QAP settings; both splits fall after null steps, where a
        # slack kept apart from the state went stale
        cfg = SolverConfig(rho=0.005, beta=0.25, k_c=2, k_p=0, sketch_rank=6, eps=1e-12, seed=0)
        return build_qap(six_slot_qap()), replace(cfg, max_iters=20), (5, 11)
    # "maxcut-dense" keeps a dense 30 x 30 store: the sketch of rank n
    rank = 5 if kind == "maxcut-sketch" else 30
    cfg = SolverConfig(k_c=4, k_p=1, sketch_rank=rank, eps=1e-12, max_iters=12, seed=0)
    return build_maxcut(random_graph(30, 0.3, 2)), cfg, (3, 7)


@pytest.mark.parametrize("kind", ["maxcut-sketch", "maxcut-dense", "qap"])
def test_split_solve_equals_straight_solve(tmp_path, kind):
    prob, cfg, splits = _case(kind)
    weights = []
    straight, _ = solve(prob, cfg, callback=lambda info: weights.append(info.rho))
    assert straight.iterations == cfg.max_iters
    # the proximal weight moved during the run, so the split carries it
    assert len(set(weights)) > 1
    for n1 in splits:
        first, _ = solve(prob, replace(cfg, max_iters=n1))
        path = tmp_path / f"split-{n1}.bin"
        save_state(path, first, prob)
        init = state_from_record(load_state(path), prob)
        resumed, _ = solve(prob, replace(cfg, max_iters=cfg.max_iters - n1), init=init)
        assert resumed.iterations == cfg.max_iters - n1
        np.testing.assert_array_equal(resumed.y, straight.y)
        np.testing.assert_array_equal(resumed.model.basis, straight.model.basis)
        np.testing.assert_array_equal(
            resumed.model.store.sk.sketch_mat, straight.model.store.sk.sketch_mat
        )
        assert resumed.f_y == straight.f_y and resumed.lam_y == straight.lam_y
        assert resumed.rho == straight.rho
        assert (resumed.descent_steps, resumed.null_steps) == (
            straight.descent_steps,
            straight.null_steps,
        )


def _summary_counts(out: str) -> tuple[int, int, int]:
    m = re.search(r"iterations: (\d+) \(descent (\d+), null (\d+)\)", out)
    return tuple(int(v) for v in m.groups())


@pytest.mark.parametrize("problem", ["maxcut", "qap"])
def test_cli_split_run_writes_the_straight_state_file(tmp_path, capsys, problem):
    if problem == "maxcut":
        instance = tmp_path / "g.mtx"
        write_graph_mm(random_graph(30, 0.3, 2), instance)
    else:
        instance = tmp_path / "q.dat"
        write_qaplib(six_slot_qap(), instance)

    def run(iters, save, *extra):
        capsys.readouterr()
        code = main(
            [
                "solve", "--problem", problem, "--input", str(instance), "--eps", "1e-12",
                "--max-iters", str(iters), "--save-state", str(tmp_path / save),
                "--out", str(tmp_path / f"{save}.csv"), *extra,
            ]
        )
        assert code == 2  # budget
        return _summary_counts(capsys.readouterr().out)

    run(25, "straight.bin")
    run(9, "first.bin")
    iters, descent, null = run(16, "resumed.bin", "--warm-start", str(tmp_path / "first.bin"))
    assert (tmp_path / "resumed.bin").read_bytes() == (tmp_path / "straight.bin").read_bytes()
    # the summary counts this solve's steps, not the saved run's as well
    assert iters == 16 and descent + null == 16


def test_cli_warm_start_resumes_at_the_saved_rho(tmp_path, capsys):
    """A version-2 state carries its weight, so ``--rho`` on the resumed
    run does not change where it goes."""
    instance = tmp_path / "g.mtx"
    write_graph_mm(random_graph(30, 0.3, 2), instance)

    def run(iters, save, *extra):
        argv = [
            "solve", "--problem", "maxcut", "--input", str(instance), "--eps", "1e-12",
            "--max-iters", str(iters), "--save-state", str(tmp_path / save),
            "--out", str(tmp_path / f"{save}.csv"), *extra,
        ]
        assert main(argv) == 2
        return load_state(tmp_path / save).state.rho

    assert run(12, "straight.bin") != 0.01
    run(5, "first.bin")
    run(7, "resumed.bin", "--warm-start", str(tmp_path / "first.bin"), "--rho", "0.5")
    assert (tmp_path / "resumed.bin").read_bytes() == (tmp_path / "straight.bin").read_bytes()


def _solve_keeping_the_slack(prob, cfg):
    """A cold solve and the slack of its last proximal step, which format
    versions 1 and 2 saved after y."""
    anchor, slack = [np.zeros(prob.m)], [None]

    def keep(info):
        slack[0] = proximal_slack(prob, anchor[0], info.rho, info.primal.constr_image)
        anchor[0] = info.y

    state, _ = solve(prob, cfg, callback=keep)
    return state, slack[0]


def _with_version(raw: bytes, version: int) -> bytes:
    return raw[:4] + struct.pack("<I", version) + raw[8:]


@pytest.mark.parametrize("kind", ["maxcut-sketch", "qap"])
def test_old_format_versions_resume_as_version_3(tmp_path, kind):
    """Versions 1 and 2 load to the state a version-3 file holds, their
    slack skipped, and resume to the same bytes: version 2 at its saved
    rho, version 1 as the state with rho None.  A version-3 file holds the
    header and 2m + nk + nr floats; its size is checked per version."""
    prob, cfg, (n1, _) = _case(kind)
    first, nu = _solve_keeping_the_slack(prob, replace(cfg, max_iters=n1))
    assert np.count_nonzero(nu) > 0 or not prob.has_ineq
    paths = {v: tmp_path / f"v{v}.bin" for v in (1, 2, 3)}
    save_state_frozen(paths[1], first, prob, 1, nu)
    save_state_frozen(paths[2], first, prob, 2, nu)
    save_state(paths[3], first, prob)
    model = first.model
    floats = 2 * prob.m + prob.n * model.k + prob.n * model.store.sk.r
    assert paths[3].stat().st_size == _HEADER.size + 8 * floats
    assert paths[2].stat().st_size == _HEADER.size + 8 * (floats + prob.m)
    assert paths[1].stat().st_size == paths[2].stat().st_size - 8

    rest = replace(cfg, max_iters=cfg.max_iters - n1)
    new = state_from_record(load_state(paths[3]), prob)
    assert new.rho == first.rho is not None
    for version, rho in ((2, new.rho), (1, None)):
        old = state_from_record(load_state(paths[version]), prob)
        for a, b in (
            (old.y, new.y),
            (old.model.basis, new.model.basis),
            (old.model.stats.constr_image, new.model.stats.constr_image),
            (old.model.store.sk.sketch_mat, new.model.store.sk.sketch_mat),
        ):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert old.rho == rho
        done_old, _ = solve(prob, rest, init=old)
        done_new, _ = solve(prob, rest, init=replace(new, rho=rho))
        save_state(tmp_path / "old.bin", done_old, prob)
        save_state(tmp_path / "new.bin", done_new, prob)
        assert (tmp_path / "old.bin").read_bytes() == (tmp_path / "new.bin").read_bytes()

    raw = paths[3].read_bytes()
    broken = {
        "truncated": raw[:-8],
        "trailing": raw + b"\0",
        "version 2 without its slack": _with_version(raw, 2),
        "version 3 with a slack": _with_version(paths[2].read_bytes(), 3),
    }
    for case, data in broken.items():
        paths[3].write_bytes(data)
        message = "trailing bytes" if case in ("trailing", "version 3 with a slack") else "truncated"
        with pytest.raises(ValueError, match=message):
            load_state(paths[3])
