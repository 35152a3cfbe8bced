"""The benchmark reads saved states back through ``load_state`` and compares
them with its own ``checks._same_state``; it also replays
``record_to_state`` and ``state_from_record`` on one record.  A change to
the state layer that breaks either must fail here, not only in the
benchmark's own run.  ``_same_state`` also compares ``saved.nu`` with
``loaded.nu``: the state holds no slack, so it reads ``SolverState.nu``, an
empty read-only stand-in kept for this check alone."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_graph
from specbundle import bundle
from specbundle.problem import build_maxcut

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def checks(monkeypatch):
    """``perfbench/checks.py``, which imports its siblings by plain name as
    it does when ``perfbench/run.py`` is the script."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    known = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in {"spans", "workloads"} - known:
        sys.modules.pop(name, None)


@pytest.fixture
def saved(tmp_path):
    prob = build_maxcut(random_graph(12, 0.4, 3))
    cfg = bundle.SolverConfig(k_c=3, k_p=1, eps=1e-9, max_iters=4, seed=0, sketch_rank=3)
    state, _ = bundle.solve(prob, cfg)
    path = tmp_path / "state.bin"
    bundle.save_state(path, state, prob)
    return prob, state, path


def test_loaded_state_is_the_saved_state(checks, saved):
    prob, state, path = saved
    rec = bundle.load_state(path)
    assert checks._same_state(state, bundle.record_to_state(rec))
    assert checks._same_state(state, bundle.state_from_record(rec, prob))


def test_saving_a_loaded_state_gives_the_same_bytes(saved, tmp_path):
    prob, _, path = saved
    again = tmp_path / "again.bin"
    bundle.save_state(again, bundle.state_from_record(bundle.load_state(path), prob), prob)
    assert again.read_bytes() == path.read_bytes()


def test_each_conversion_is_an_independent_state(saved):
    prob, _, path = saved
    rec = bundle.load_state(path)
    first, second = bundle.record_to_state(rec), bundle.record_to_state(rec)
    y = second.y.copy()
    first.y += 1.0
    first.model.store.sk.sketch_mat[:] = 0.0
    np.testing.assert_array_equal(second.y, y)
    np.testing.assert_array_equal(bundle.state_from_record(rec, prob).y, y)
    assert np.any(second.model.store.sk.sketch_mat != 0.0)
