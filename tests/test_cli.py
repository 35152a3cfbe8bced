import csv
import json
import re

import numpy as np
import pytest

from _oracles import qap_constraint_entries_frozen
from conftest import graph_from_edges, random_graph, random_qap
from specbundle import cli as cli_mod
from specbundle.cli import main
from specbundle.problem import (
    QapInstance,
    parse_graph_mm,
    parse_qaplib,
    write_graph_mm,
    write_qaplib,
)

K3_MTX = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n3 1\n3 2\n"


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.mtx"
    path.write_text(K3_MTX)
    return path


def _row_entries(idx, rows, cols, vals, vertex_map):
    """One {(row, col): value} dict per constraint, with row <= col after
    moving both indices through ``vertex_map``."""
    r, c = vertex_map[rows], vertex_map[cols]
    lo, hi = np.minimum(r, c).tolist(), np.maximum(r, c).tolist()
    out = [{} for _ in range(int(idx.max()) + 1)]
    for i, pair, v in zip(idx.tolist(), zip(lo, hi), vals.tolist()):
        out[i][pair] = v
    return out


def assert_rows_map_onto_support(full, mapping):
    """Each row of the shrunken instance, its entries moved through the
    vertex map, lies in the support of the full row it maps to, and equals
    that row when the full row's entries all sit on kept indices."""
    vertex_map = np.asarray(mapping["vertex_map"])
    constraint_map = mapping["constraint_map"]
    n_full = full.size**2 + 1
    sub_rows = _row_entries(*qap_constraint_entries_frozen(full.shrink())[:4], vertex_map)
    full_rows = _row_entries(*qap_constraint_entries_frozen(full)[:4], np.arange(n_full))
    assert len(constraint_map) == len(sub_rows)
    assert len(set(constraint_map)) == len(constraint_map)
    kept = set(vertex_map.tolist())
    for s, f in enumerate(constraint_map):
        moved, target = sub_rows[s], full_rows[f]
        assert moved.keys() <= target.keys(), (s, f)
        if all(r in kept and c in kept for r, c in target):
            assert moved == target, (s, f)


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestSolveCommand:
    def test_k3_end_to_end(self, tmp_path, k3_file):
        out = tmp_path / "m.csv"
        rc = main(
            [
                "solve", "--problem", "maxcut", "--input", str(k3_file),
                "--eps", "1e-3", "--out", str(out), "--round",
            ]
        )
        assert rc == 0
        rows = read_rows(out)
        assert rows[0] == [
            "iter", "time_s", "f_y", "rel_subopt", "rel_infeas",
            "linf_infeas", "dual_feas", "step", "rounded",
        ]
        final = rows[-1]
        assert float(final[4]) <= 1e-3
        assert final[7] in ("descent", "null")
        assert float(final[8]) == 2.0

    def test_summary_line_sums_the_callback_values(self, tmp_path, k3_file, capsys, monkeypatch):
        infos = []
        real = cli_mod.solve

        def recorded(*args, callback, **kwargs):
            def both(info):
                infos.append(info)
                callback(info)

            return real(*args, callback=both, **kwargs)

        monkeypatch.setattr(cli_mod, "solve", recorded)
        rc = main(
            [
                "solve", "--problem", "maxcut", "--input", str(k3_file),
                "--eps", "1e-3", "--out", str(tmp_path / "m.csv"),
            ]
        )
        assert rc == 0 and infos
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == (
            f"summary: eigensolve matvecs {sum(i.eig_matvecs for i in infos)}, "
            f"leading-pair misses {sum(not i.eig_leading_converged for i in infos)}, "
            f"Newton steps {sum(i.alt_newton for i in infos)}, "
            f"inexact subproblem solves {sum(not i.alt_exact for i in infos)}"
        )

    def test_byte_order_mark_input(self, tmp_path):
        path = tmp_path / "k3-bom.mtx"
        path.write_text(K3_MTX, encoding="utf-8-sig")
        out = tmp_path / "m.csv"
        rc = main(
            [
                "solve", "--problem", "maxcut", "--input", str(path),
                "--eps", "1e-3", "--out", str(out), "--round",
            ]
        )
        assert rc == 0
        assert float(read_rows(out)[-1][8]) == 2.0

    def test_zero_budget(self, tmp_path, k3_file):
        out = tmp_path / "z.csv"
        rc = main(
            [
                "solve", "--problem", "maxcut", "--input", str(k3_file),
                "--max-iters", "0", "--out", str(out),
            ]
        )
        assert rc == 2
        assert len(read_rows(out)) == 1  # header only

    def test_warm_start_converged_state(self, tmp_path, k3_file):
        state = tmp_path / "s.bin"
        out1 = tmp_path / "a.csv"
        assert main(
            [
                "solve", "--problem", "maxcut", "--input", str(k3_file),
                "--save-state", str(state), "--out", str(out1),
            ]
        ) == 0
        out2 = tmp_path / "b.csv"
        rc = main(
            [
                "solve", "--problem", "maxcut", "--input", str(k3_file),
                "--warm-start", str(state), "--out", str(out2),
            ]
        )
        assert rc == 0
        assert len(read_rows(out2)) - 1 <= 2

    def test_csv_deterministic_modulo_time(self, tmp_path, k3_file):
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            assert main(
                [
                    "solve", "--problem", "maxcut", "--input", str(k3_file),
                    "--seed", "5", "--out", str(out),
                ]
            ) == 0
            outs.append(read_rows(out))
        strip = lambda rows: [[c for i, c in enumerate(r) if i != 1] for r in rows]
        assert strip(outs[0]) == strip(outs[1])

    def test_usage_error_codes(self, tmp_path, k3_file):
        assert main(["solve", "--problem", "maxcut"]) == 64
        assert main(["solve", "--problem", "nosuch", "--input", str(k3_file)]) == 64
        assert main([]) == 64
        assert main(["solve", "--problem", "maxcut", "--input", str(tmp_path / "missing.mtx")]) == 64

    @pytest.mark.parametrize("flag", ["--input", "--config", "--out", "--state"])
    def test_directory_path_is_usage_error(self, tmp_path, k3_file, capsys, flag):
        """A path flag naming a directory exits 64 with a one-line message."""
        solve = ["solve", "--problem", "maxcut"]
        k3, out, folder = str(k3_file), str(tmp_path / "m.csv"), str(tmp_path)
        argv = {
            "--input": solve + ["--input", folder, "--out", out],
            "--config": solve + ["--input", k3, "--config", folder, "--out", out],
            "--out": solve + ["--input", k3, "--out", folder],
            "--state": ["round", "--problem", "maxcut", "--input", k3, "--state", folder],
        }[flag]
        assert main(argv) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_parse_error_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("junk\n")
        assert main(["solve", "--problem", "maxcut", "--input", str(bad)]) == 1

    def test_config_file_precedence(self, tmp_path, k3_file):
        cfgf = tmp_path / "cfg"
        cfgf.write_text("eps = 0.5\nseed = 3\n# comment\n")
        out = tmp_path / "c.csv"
        rc = main(
            [
                "solve", "--problem", "maxcut", "--input", str(k3_file),
                "--config", str(cfgf), "--eps", "1e-3", "--out", str(out),
            ]
        )
        assert rc == 0  # flag eps beats the loose config value
        rows = read_rows(out)
        assert float(rows[-1][4]) <= 1e-3

    @pytest.mark.parametrize("flag, value", [("--eps", "inf"), ("--rho", "inf"), ("--rho", "1e-320")])
    def test_setting_that_breaks_the_solve_exits_1(self, tmp_path, k3_file, capsys, flag, value):
        out = tmp_path / "m.csv"
        code = main(
            ["solve", "--problem", "maxcut", "--input", str(k3_file), flag, value, "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"SolverConfig.{flag[2:]} must be" in err and "Traceback" not in err

    def test_unknown_config_key(self, tmp_path, k3_file):
        cfgf = tmp_path / "cfg"
        cfgf.write_text("nonsense = 1\n")
        assert main(
            [
                "solve", "--problem", "maxcut", "--input", str(k3_file),
                "--config", str(cfgf),
            ]
        ) == 64


    @pytest.mark.parametrize(
        "line", ["linf_check = treu", "max_iters = 1e3", "kc = abc", "eps = small"]
    )
    def test_unreadable_config_value(self, tmp_path, k3_file, capsys, line):
        cfgf = tmp_path / "cfg"
        cfgf.write_text(line + "\n")
        code = main(
            [
                "solve", "--problem", "maxcut", "--input", str(k3_file),
                "--config", str(cfgf), "--out", str(tmp_path / "m.csv"),
            ]
        )
        assert code == 64
        key, value = (part.strip() for part in line.split("="))
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err and repr(value) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "value, expected",
        [(v, True) for v in ("1", "true", "YES", "On")]
        + [(v, False) for v in ("0", "False", "no", "OFF")],
    )
    def test_config_booleans(self, value, expected):
        from specbundle.cli import _coerce

        assert _coerce("linf_check", value, False) is expected

class TestRoundCommand:
    def test_round_saved_k3(self, tmp_path, k3_file, capsys):
        state = tmp_path / "s.bin"
        assert main(
            [
                "solve", "--problem", "maxcut", "--input", str(k3_file),
                "--save-state", str(state), "--out", str(tmp_path / "x.csv"),
            ]
        ) == 0
        rc = main(["round", "--problem", "maxcut", "--input", str(k3_file), "--state", str(state)])
        assert rc == 0
        assert "cut value: 2" in capsys.readouterr().out

    def test_fingerprint_mismatch(self, tmp_path, k3_file):
        state = tmp_path / "s.bin"
        assert main(
            [
                "solve", "--problem", "maxcut", "--input", str(k3_file),
                "--save-state", str(state), "--out", str(tmp_path / "x.csv"),
            ]
        ) == 0
        other = tmp_path / "other.mtx"
        write_graph_mm(random_graph(5, 0.8, 1), other)
        rc = main(["round", "--problem", "maxcut", "--input", str(other), "--state", str(state)])
        assert rc == 65

    def test_solve_refuses_mismatched_warm_start(self, tmp_path, k3_file):
        state = tmp_path / "s.bin"
        assert main(
            [
                "solve", "--problem", "maxcut", "--input", str(k3_file),
                "--save-state", str(state), "--out", str(tmp_path / "x.csv"),
            ]
        ) == 0
        other = tmp_path / "other.mtx"
        write_graph_mm(random_graph(5, 0.8, 1), other)
        rc = main(
            [
                "solve", "--problem", "maxcut", "--input", str(other),
                "--warm-start", str(state), "--out", str(tmp_path / "y.csv"),
            ]
        )
        assert rc == 65


class TestPerturbCommand:
    def test_graph_fraction(self, tmp_path):
        g = random_graph(50, 0.2, 2)
        src = tmp_path / "g.mtx"
        write_graph_mm(g, src)
        sub_path = tmp_path / "sub.mtx"
        map_path = tmp_path / "map.json"
        rc = main(
            [
                "perturb", "--problem", "maxcut", "--input", str(src),
                "--fraction", "0.1", "--out-instance", str(sub_path),
                "--out-mapping", str(map_path),
            ]
        )
        assert rc == 0
        sub = parse_graph_mm(sub_path)
        assert sub.n == 45  # dropped ceil(0.1 * 50)
        mapping = json.loads(map_path.read_text())
        assert mapping["vertex_map"] == list(range(45))

    def test_graph_one_percent_thousand(self, tmp_path):
        g = random_graph(1000, 0.004, 3)
        src = tmp_path / "big.mtx"
        write_graph_mm(g, src)
        rc = main(
            [
                "perturb", "--problem", "maxcut", "--input", str(src),
                "--fraction", "0.01",
                "--out-instance", str(tmp_path / "s.mtx"),
                "--out-mapping", str(tmp_path / "m.json"),
            ]
        )
        assert rc == 0
        assert parse_graph_mm(tmp_path / "s.mtx").n == 990

    def test_qap_shrink_and_mapping_valid(self, tmp_path):
        q = random_qap(3, 4)
        src = tmp_path / "q.dat"
        write_qaplib(q, src)
        sub_path = tmp_path / "sub.dat"
        map_path = tmp_path / "map.json"
        rc = main(
            [
                "perturb", "--problem", "qap", "--input", str(src),
                "--out-instance", str(sub_path), "--out-mapping", str(map_path),
            ]
        )
        assert rc == 0
        sub = parse_qaplib(sub_path)
        assert sub.size == 2
        mapping = json.loads(map_path.read_text())
        from specbundle.problem import build_qap

        full_prob = build_qap(q)
        sub_prob = build_qap(sub)
        assert len(mapping["vertex_map"]) == sub_prob.n
        assert len(mapping["constraint_map"]) == sub_prob.m
        assert max(mapping["vertex_map"]) < full_prob.n
        assert max(mapping["constraint_map"]) < full_prob.m
        assert_rows_map_onto_support(q, mapping)

    @pytest.mark.parametrize("n", [3, 5, 8])
    @pytest.mark.parametrize("support", ["sparse", "dense"])
    def test_qap_mapping_keeps_row_support(self, tmp_path, n, support):
        q = random_qap(n, 20 + n)
        if support == "dense":  # no zero entry: every objective entry has a G row
            rng = np.random.default_rng(n)
            w, d = rng.uniform(1, 2, (2, n, n))
            q = QapInstance(w + w.T, d + d.T)
        src = tmp_path / "q.dat"
        write_qaplib(q, src)
        map_path = tmp_path / "map.json"
        assert main(
            [
                "perturb", "--problem", "qap", "--input", str(src),
                "--out-instance", str(tmp_path / "sub.dat"), "--out-mapping", str(map_path),
            ]
        ) == 0
        assert_rows_map_onto_support(q, json.loads(map_path.read_text()))

    def test_pad_round_trip_dimension_valid(self, tmp_path):
        g = random_graph(30, 0.3, 5)
        src = tmp_path / "g.mtx"
        write_graph_mm(g, src)
        sub_path = tmp_path / "sub.mtx"
        map_path = tmp_path / "map.json"
        assert main(
            [
                "perturb", "--problem", "maxcut", "--input", str(src),
                "--fraction", "0.05", "--out-instance", str(sub_path),
                "--out-mapping", str(map_path),
            ]
        ) == 0
        state_path = tmp_path / "sub.bin"
        assert main(
            [
                "solve", "--problem", "maxcut", "--input", str(sub_path),
                "--save-state", str(state_path), "--out", str(tmp_path / "s.csv"),
                "--max-iters", "300",
            ]
        ) in (0, 2)
        out = tmp_path / "warm.csv"
        rc = main(
            [
                "solve", "--problem", "maxcut", "--input", str(src),
                "--warm-start", str(state_path), "--mapping", str(map_path),
                "--out", str(out), "--max-iters", "300",
            ]
        )
        assert rc in (0, 2)

    def test_mapping_that_is_not_injective_exits_1(self, tmp_path, capsys):
        g = random_graph(8, 0.5, 7)
        src, sub = tmp_path / "g.mtx", tmp_path / "sub.mtx"
        write_graph_mm(g, src)
        write_graph_mm(g.subgraph(7), sub)
        state_path = tmp_path / "s.bin"
        main(["solve", "--problem", "maxcut", "--input", str(sub), "--max-iters", "2",
              "--save-state", str(state_path), "--out", str(tmp_path / "s.csv")])
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps({"vertex_map": [0, 1, 2, 3, 4, 5, 5],
                                        "constraint_map": list(range(7))}))
        capsys.readouterr()
        rc = main(["solve", "--problem", "maxcut", "--input", str(src), "--max-iters", "2",
                   "--warm-start", str(state_path), "--mapping", str(map_path),
                   "--out", str(tmp_path / "w.csv")])
        assert rc == 1
        assert "vertex mapping is not injective" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"vertex_map": [0, 1, 2, 3]}', "constraint_map"),
            ("[[0, 1, 2, 3], [0, 1, 2, 3]]", "vertex_map"),
            ('{"vertex_map": [0, 1, 2, 3], "constraint_map": [[0, 1], [2, 3]]}', "constraint_map"),
            ('{"vertex_map": [0, 1, 2, 1e30], "constraint_map": [0, 1, 2, 3]}', "vertex_map"),
            ('{"vertex_map": [0, 0.5, 2, 3], "constraint_map": [0, 1, 2, 3]}', "vertex_map"),
            ('{"vertex_map": [0, 1, 2, 3], "constraint_map": [0, true, 2, 3]}', "constraint_map"),
        ],
        ids=["missing-key", "top-level-list", "two-dimensional", "huge-index", "fraction", "bool"],
    )
    def test_malformed_mapping_exits_1(self, tmp_path, capsys, text, key):
        # a 4-vertex state warm started onto a 5-vertex graph
        g = random_graph(5, 0.8, 3)
        src, sub = tmp_path / "g.mtx", tmp_path / "sub.mtx"
        write_graph_mm(g, src)
        write_graph_mm(g.subgraph(4), sub)
        state_path = tmp_path / "s.bin"
        main(["solve", "--problem", "maxcut", "--input", str(sub), "--max-iters", "2",
              "--save-state", str(state_path), "--out", str(tmp_path / "s.csv")])
        map_path = tmp_path / "map.json"
        map_path.write_text(text)
        capsys.readouterr()
        code = main(["solve", "--problem", "maxcut", "--input", str(src), "--max-iters", "2",
                     "--warm-start", str(state_path), "--mapping", str(map_path),
                     "--out", str(tmp_path / "w.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert repr(key) in err and "Traceback" not in err

    def test_bad_fraction(self, tmp_path):
        g = random_graph(10, 0.5, 6)
        src = tmp_path / "g.mtx"
        write_graph_mm(g, src)
        rc = main(
            [
                "perturb", "--problem", "maxcut", "--input", str(src),
                "--fraction", "1.5", "--out-instance", str(tmp_path / "a"),
                "--out-mapping", str(tmp_path / "b"),
            ]
        )
        assert rc == 64


class TestQapCommands:
    def test_solve_round_flow(self, tmp_path, capsys):
        q = random_qap(2, 8, lo=1, hi=5)
        src = tmp_path / "q.dat"
        write_qaplib(q, src)
        out = tmp_path / "q.csv"
        state = tmp_path / "q.bin"
        rc = main(
            [
                "solve", "--problem", "qap", "--input", str(src),
                "--max-iters", "8", "--out", str(out), "--save-state", str(state),
                "--round", "--optimum", "1.0",
            ]
        )
        assert rc in (0, 2)
        rows = read_rows(out)
        assert len(rows) >= 2 and rows[-1][8] != ""
        rc = main(["round", "--problem", "qap", "--input", str(src), "--state", str(state)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "permutation:" in text


def test_dense_store_at_scale_exits_with_message(tmp_path, capsys):
    from specbundle.bundle import MAX_EXPLICIT_N
    from specbundle.problem import GraphInstance

    n = MAX_EXPLICIT_N + 1
    u = list(range(n - 1))
    path = tmp_path / "path.mtx"
    write_graph_mm(GraphInstance.from_arrays(n, u, [i + 1 for i in u], [1.0] * (n - 1)), path)
    code = main(
        [
            "solve", "--problem", "maxcut", "--input", str(path), "--sketch-rank", "0",
            "--out", str(tmp_path / "m.csv"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "sketch_rank" in err and "Traceback" not in err


def _corrupt_state(raw: bytes, case: str) -> bytes:
    """Damage one part of a state file written by ``save_state``."""
    import struct

    head = "<4sI QQQQ II B II dd dd QQ dd d"  # format version 2
    kind_at = struct.calcsize("<4sI QQQQ II")
    trace_at = struct.calcsize("<4sI QQQQ II B II dd dd QQ")
    rho_at = struct.calcsize("<4sI QQQQ II B II dd dd QQ dd")
    size = struct.calcsize(head)
    if case == "store kind 0":
        return raw[:kind_at] + bytes([0]) + raw[kind_at + 1:]
    if case == "store kind 3":
        return raw[:kind_at] + bytes([3]) + raw[kind_at + 1:]
    if case == "truncated payload":
        return raw[:-8]
    if case == "trailing bytes":
        return raw + b"\0" * 8
    if case == "nan in y":
        return raw[:size] + struct.pack("<d", float("nan")) + raw[size + 8:]
    if case == "inf in primal store":
        return raw[:-8] + struct.pack("<d", float("inf"))
    if case == "inf trace":
        return raw[:trace_at] + struct.pack("<d", float("inf")) + raw[trace_at + 8:]
    if case == "nan cost":
        return raw[:trace_at + 8] + struct.pack("<d", float("nan")) + raw[trace_at + 16:]
    if case == "negative rho":
        return raw[:rho_at] + struct.pack("<d", -0.01) + raw[rho_at + 8:]
    raise AssertionError(case)


@pytest.mark.parametrize(
    "case, message",
    [
        ("store kind 0", "store kind"),
        ("store kind 3", "store kind"),
        ("truncated payload", "truncated"),
        ("trailing bytes", "trailing bytes"),
        ("nan in y", "non-finite"),
        ("inf in primal store", "non-finite"),
        ("inf trace", "non-finite"),
        ("nan cost", "non-finite"),
        ("negative rho", "rho"),
    ],
)
def test_malformed_state_file_exits_with_message(tmp_path, k3_file, capsys, case, message):
    state = tmp_path / "s.bin"
    assert main(
        [
            "solve", "--problem", "maxcut", "--input", str(k3_file),
            "--save-state", str(state), "--out", str(tmp_path / "x.csv"),
        ]
    ) == 0
    assert main(["round", "--problem", "maxcut", "--input", str(k3_file), "--state", str(state)]) == 0
    state.write_bytes(_corrupt_state(state.read_bytes(), case))
    capsys.readouterr()
    for argv in (
        ["round", "--problem", "maxcut", "--input", str(k3_file), "--state", str(state)],
        [
            "solve", "--problem", "maxcut", "--input", str(k3_file),
            "--warm-start", str(state), "--out", str(tmp_path / "y.csv"),
        ],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


def _resized_state(state, case: str) -> None:
    """Give ``state`` a header that breaks one dimension rule, with a payload
    of the size that header declares, so only the rule can reject it."""
    from specbundle.sketch import NystromSketch

    model, n = state.model, state.model.basis.shape[0]
    if case == "k_c 0":
        model.k_c, model.k_p = 0, model.k
    elif case == "k_c + k_p past n":
        model.basis = np.hstack([model.basis, np.zeros((n, 3))])
        model.k_c += 3
    else:
        rank = 0 if case == "sketch rank 0" else n + 5
        model.store.sk = NystromSketch(n, rank, model.store.sk.psi_seed, np.zeros((n, rank)))


@pytest.mark.parametrize(
    "case, message",
    [
        ("k_c 0", "k_c = 0"),
        ("k_c + k_p past n", "k_c + k_p = 6"),
        ("sketch rank 0", "sketch rank 0"),
        ("sketch rank past n", "sketch rank 8"),
    ],
)
def test_state_header_breaking_a_dimension_rule_exits_with_message(
    tmp_path, k3_file, capsys, case, message
):
    from specbundle.bundle import load_state, save_state, state_from_record
    from specbundle.problem import build_maxcut

    state = tmp_path / "s.bin"
    argv_solve = [
        "solve", "--problem", "maxcut", "--input", str(k3_file), "--out", str(tmp_path / "x.csv"),
    ]
    assert main(argv_solve + ["--save-state", str(state)]) == 0
    prob = build_maxcut(parse_graph_mm(k3_file))
    bad = state_from_record(load_state(state), prob)
    _resized_state(bad, case)
    save_state(state, bad, prob)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_state(state)
    capsys.readouterr()
    for argv in (
        ["round", "--problem", "maxcut", "--input", str(k3_file), "--state", str(state)],
        argv_solve + ["--warm-start", str(state)],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["maxcut edge 1e160", "qap weight 1e160", "qap weight 1e200"])
def test_overflowing_cost_exits_with_message(tmp_path, capsys, case):
    if case.startswith("maxcut"):
        path = tmp_path / "g.mtx"
        write_graph_mm(graph_from_edges(3, [(0, 1, 1e160), (1, 2, 1.0)]), path)
        problem = "maxcut"
    else:
        q = random_qap(3, 4)
        w = q.weights.copy()
        w[0, 1] = w[1, 0] = float(case.rsplit(" ", 1)[1])
        path = tmp_path / "q.dat"
        write_qaplib(QapInstance(w, q.distances), path)
        problem = "qap"
    capsys.readouterr()
    rc = main(
        ["solve", "--problem", problem, "--input", str(path), "--out", str(tmp_path / "m.csv")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "overflow" in err and "Traceback" not in err


@pytest.mark.parametrize("tiny", [1e-170, 1e-160])
def test_underflowing_qap_cost_exits_with_message(tmp_path, capsys, tiny):
    q = random_qap(3, 4, lo=1)
    path = tmp_path / "q.dat"
    write_qaplib(QapInstance(tiny * q.weights, tiny * q.distances), path)
    capsys.readouterr()
    rc = main(["solve", "--problem", "qap", "--input", str(path), "--out", str(tmp_path / "m.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "underflow" in err and "Traceback" not in err
