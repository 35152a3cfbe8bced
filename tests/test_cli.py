import csv
import json
import re

import numpy as np
import pytest

from _oracles import cli_settings_frozen, qap_constraint_entries_frozen
from conftest import graph_from_edges, random_graph, random_qap, state_header_offset
from specbundle import bundle
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

    @staticmethod
    def record_iterations(monkeypatch) -> list:
        """The iteration records of the CLI's solves, as its callback sees them."""
        infos = []
        real = cli_mod.solve

        def recorded(*args, callback, **kwargs):
            def both(info):
                infos.append(info)
                callback(info)

            return real(*args, callback=both, **kwargs)

        monkeypatch.setattr(cli_mod, "solve", recorded)
        return infos

    def test_summary_line_sums_the_callback_values(self, tmp_path, k3_file, capsys, monkeypatch):
        infos = self.record_iterations(monkeypatch)
        rc = main(
            [
                "solve", "--problem", "maxcut", "--input", str(k3_file),
                "--eps", "1e-3", "--out", str(tmp_path / "m.csv"),
            ]
        )
        assert rc == 0 and infos
        summary = capsys.readouterr().out.splitlines()[-2]
        misses = sum(not (i.eig_leading_converged or i.eig_decided) for i in infos)
        assert summary == (
            f"summary: eigensolve matvecs {sum(i.eig_matvecs for i in infos)}, "
            f"leading-pair misses {misses}, "
            f"Newton steps {sum(i.alt_newton for i in infos)}, "
            f"inexact subproblem solves {sum(not i.alt_exact for i in infos)}"
        )

    def test_phases_line_sums_the_phase_seconds_and_counts_decision_exits(
        self, tmp_path, capsys, monkeypatch
    ):
        # a 300-vertex graph runs Lanczos, so some candidate eigensolves stop
        # at their decision exit; none of those counts as a leading-pair miss
        infos = self.record_iterations(monkeypatch)
        path = tmp_path / "g.mtx"
        write_graph_mm(random_graph(300, 0.03, 5), path)
        rc = main(
            [
                "solve", "--problem", "maxcut", "--input", str(path),
                "--max-iters", "30", "--out", str(tmp_path / "m.csv"),
            ]
        )
        assert rc in (0, 2) and infos
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].startswith("summary: ")
        exits = sum(i.eig_decided for i in infos)
        assert exits > 0
        assert all(i.step == "null" for i in infos if i.eig_decided)
        misses = sum(not (i.eig_leading_converged or i.eig_decided) for i in infos)
        assert f"leading-pair misses {misses}," in lines[-2]
        sums = {
            name: sum(getattr(i, f"secs_{name}") for i in infos)
            for name in ("prox", "eig", "model_val", "model_update", "residuals")
        }
        assert lines[-1] == (
            f"phases (s): proximal step {sums['prox']:.3f}, eigensolve {sums['eig']:.3f}, "
            f"model value {sums['model_val']:.3f}, model update {sums['model_update']:.3f}, "
            f"residuals {sums['residuals']:.3f}; decision exits {exits}"
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

    @pytest.mark.parametrize("case", ["directory", "missing parent", "unwritable"])
    def test_save_state_path_checked_before_the_solve(self, tmp_path, k3_file, capsys, monkeypatch, case):
        """A --save-state path that cannot be written exits 64 before the
        solve starts or the metrics file is opened."""
        dest = {
            "directory": tmp_path,
            "missing parent": tmp_path / "nope" / "s.bin",
            "unwritable": tmp_path / "s.bin",
        }[case]
        if case == "unwritable":
            # refused as the OS refuses a read-only file (root ignores modes)
            def refusing_open(path, *args, **kwargs):
                if str(path) == str(dest):
                    raise PermissionError(13, "Permission denied", str(path))
                return open(path, *args, **kwargs)

            monkeypatch.setattr(cli_mod, "open", refusing_open, raising=False)

        def no_solve(*args, **kwargs):
            raise AssertionError("the solve ran")

        monkeypatch.setattr(cli_mod, "solve", no_solve)
        out = tmp_path / "m.csv"
        argv = ["solve", "--problem", "maxcut", "--input", str(k3_file), "--out", str(out)]
        assert main(argv + ["--save-state", str(dest)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not out.exists()
        assert case == "directory" or not dest.exists()

    def test_save_state_keeps_an_existing_file_until_the_solve_ends(self, tmp_path, k3_file, monkeypatch):
        """Saving to the --warm-start file reads it intact; a failed solve
        leaves an existing file as it was and creates no new one."""
        state = tmp_path / "s.bin"
        argv = ["solve", "--problem", "maxcut", "--input", str(k3_file), "--out", str(tmp_path / "m.csv")]
        assert main(argv + ["--save-state", str(state), "--max-iters", "1"]) == 2
        before = state.read_bytes()
        real_solve = cli_mod.solve
        seen = []

        def solve(*args, **kwargs):
            seen.append(state.read_bytes())
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "solve", solve)
        assert main(argv + ["--warm-start", str(state), "--save-state", str(state)]) == 0
        assert seen == [before]
        after = state.read_bytes()
        assert after != before and len(after) == len(before)  # rewritten, not appended

        def failing(*args, **kwargs):
            raise RuntimeError("solve failed")

        monkeypatch.setattr(cli_mod, "solve", failing)
        new = tmp_path / "new.bin"
        for dest in (state, new):
            assert main(argv + ["--warm-start", str(state), "--save-state", str(dest)]) == 1
        assert state.read_bytes() == after and not new.exists()

    def test_mismatched_warm_start_creates_no_state_file(self, tmp_path, k3_file):
        """A warm start refused with exit 65 writes no state, so a new
        --save-state path is left absent, not empty."""
        state = tmp_path / "s.bin"
        argv = ["solve", "--problem", "maxcut", "--out", str(tmp_path / "m.csv")]
        assert main(argv + ["--input", str(k3_file), "--save-state", str(state)]) == 0
        other = tmp_path / "other.mtx"
        write_graph_mm(random_graph(5, 0.8, 1), other)
        new = tmp_path / "new.bin"
        rc = main(argv + ["--input", str(other), "--warm-start", str(state), "--save-state", str(new)])
        assert rc == 65 and not new.exists()

    def test_out_of_memory_exits_1_without_a_traceback(self, tmp_path, capsys, monkeypatch):
        """An instance too large for memory (here a size line of 3e9
        vertices) exits 1 with one message line, and a --save-state file
        the run created is removed.  `build_maxcut` raises as numpy's
        allocator would instead of allocating for real."""
        big = tmp_path / "big.mtx"
        big.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n3000000000 3000000000 1\n2 1\n")

        def refusing_build(graph):
            raise MemoryError(f"Unable to allocate 22.4 GiB for an array with shape ({graph.n},)")

        monkeypatch.setattr(cli_mod, "build_maxcut", refusing_build)
        state = tmp_path / "s.bin"
        argv = ["solve", "--problem", "maxcut", "--input", str(big), "--save-state", str(state)]
        assert main(argv + ["--out", str(tmp_path / "m.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not state.exists()

    def test_parse_error_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("junk\n")
        assert main(["solve", "--problem", "maxcut", "--input", str(bad)]) == 1

    @pytest.mark.parametrize("weight", ["1_0", "٥"])
    def test_qaplib_token_outside_the_grammar_exits_1(self, tmp_path, capsys, weight):
        """``1_0`` and U+0665 are errors, as in a MatrixMarket file, not a
        weight of 10 or 5."""
        bad = tmp_path / "q.dat"
        bad.write_text(f"2\n0 {weight}\n{weight} 0\n0 1\n1 0\n", encoding="utf-8")
        out = tmp_path / "m.csv"
        assert main(["solve", "--problem", "qap", "--input", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "parse error: line 2" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "problem, data",
        [
            ("maxcut", b"%%MatrixMarket matrix coordinate real symmetric\n3 3 1\n2 1 1.0\xff\n"),
            ("qap", b"2\n0 3\n3 0\xff\n0 5\n5 0\n"),
        ],
    )
    def test_byte_that_is_not_utf8_exits_1(self, tmp_path, capsys, problem, data):
        """A parse error on the byte's line, not a bare codec message."""
        bad = tmp_path / "bad"
        bad.write_bytes(data)
        assert main(["solve", "--problem", problem, "--input", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "parse error: line 3: byte 0xff is not UTF-8" in err and "Traceback" not in err

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

    @pytest.mark.parametrize(
        "flag, value", [("--eps", "inf"), ("--rho", "inf"), ("--rho", "1e-320"), ("--seed", "-1")]
    )
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
        "value, was",
        [(v, True) for v in ("1", "true", "YES", "On")]
        + [(v, False) for v in ("0", "False", "no", "OFF")],
    )
    def test_config_booleans(self, tmp_path, k3_file, capsys, value, was):
        """No setting is a boolean: the linf_check switch, the only one, is
        gone, since the stop rule reads linf_infeas always.  A config line
        that set it to any value its reader took, as true or false (``was``),
        is a usage error."""
        cfgf = tmp_path / "cfg"
        cfgf.write_text(f"linf_check = {value}\n")
        argv = ["solve", "--problem", "maxcut", "--input", str(k3_file), "--config", str(cfgf)]
        assert main(argv + ["--out", str(tmp_path / "m.csv")]) == 64
        err = capsys.readouterr().err
        assert "unknown config key 'linf_check'" in err and "Traceback" not in err

    def test_linf_check_flag_is_a_usage_error(self, tmp_path, k3_file, capsys):
        argv = ["solve", "--problem", "maxcut", "--input", str(k3_file), "--linf-check"]
        assert main(argv + ["--out", str(tmp_path / "m.csv")]) == 64
        err = capsys.readouterr().err
        assert "--linf-check" in err and "Traceback" not in err
        assert not (tmp_path / "m.csv").exists()


class TestResolvedConfig:
    """The CLI resolves to the library's settings, which equal, field by
    field and type by type, the tables the CLI kept before the library's
    defaults became their one source."""

    CONFIG = (
        "rho = 0.5\nbeta = 0.5\nkc = 3\nkp = 2\nsketch-rank = 7\n"
        "max_time = 2\nseed = 5\n"
    )
    FROM_CONFIG = dict(rho=0.5, beta=0.5, kc=3, kp=2, sketch_rank=7, max_time=2.0, seed=5)
    FLAGS = ["--rho", "0.25", "--kc", "4", "--kp", "0", "--eps", "1e-4", "--max-iters", "7"]
    FROM_FLAGS = dict(rho=0.25, kc=4, kp=0, eps=1e-4, max_iters=7)

    @pytest.mark.parametrize("kind", ["maxcut", "qap"])
    @pytest.mark.parametrize("case", ["defaults", "config", "flags over config"])
    def test_settings_match_the_frozen_tables(self, tmp_path, kind, case):
        instance = random_graph(5, 0.8, 1) if kind == "maxcut" else random_qap(4, 0)
        argv = ["solve", "--problem", kind, "--input", "unread"]
        changes = {}
        if case != "defaults":
            path = tmp_path / "cfg"
            path.write_text(self.CONFIG)
            argv += ["--config", str(path)]
            changes.update(self.FROM_CONFIG)
        if case == "flags over config":
            argv += self.FLAGS
            changes.update(self.FROM_FLAGS)
        cfg = cli_mod._resolve_config(cli_mod._build_parser().parse_args(argv), kind, instance)
        assert type(cfg) is cli_mod.SolverConfig
        typed = {f: (type(v), v) for f, v in vars(cfg).items()}
        expected = cli_settings_frozen(kind, 4, **changes)  # 4: the QAP assignment size
        assert typed == {f: (type(v), v) for f, v in expected.items()}


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


    def test_state_of_the_two_row_qap_layout_is_refused(self, tmp_path, capsys):
        """A QAP state saved with two G rows per pair has another m, so both
        commands refuse it with exit 65 and name the fields that differ."""
        from _oracles import build_qap_ordered_pairs
        from specbundle.bundle import SolverConfig, cold_start, save_state

        q = random_qap(3, 4)
        inst = tmp_path / "q.dat"
        write_qaplib(q, inst)
        old, _ = build_qap_ordered_pairs(q)
        state = tmp_path / "old.bin"
        save_state(state, cold_start(old, SolverConfig(k_c=2, k_p=0, sketch_rank=3)), old)
        m_new = old.m - int(np.count_nonzero(np.kron(q.distances, q.weights))) // 2
        for argv in (
            ["round", "--problem", "qap", "--input", str(inst), "--state", str(state)],
            ["solve", "--problem", "qap", "--input", str(inst), "--warm-start", str(state),
             "--out", str(tmp_path / "m.csv")],
        ):
            assert main(argv) == 65
            err = capsys.readouterr().err
            assert f"m {old.m} in the state, {m_new} in the problem" in err
            assert "; inequality rows " in err and "; hash of b " in err
            assert ": n " not in err and "; n " not in err


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

    @pytest.mark.parametrize("problem", ["maxcut", "qap"])
    @pytest.mark.parametrize("case", ["directory", "missing parent"])
    def test_out_mapping_checked_before_the_instance_is_written(self, tmp_path, capsys, problem, case):
        src = tmp_path / "in.txt"
        if problem == "maxcut":
            write_graph_mm(random_graph(20, 0.3, 1), src)
        else:
            write_qaplib(random_qap(3, 1), src)
        sub = tmp_path / "sub.txt"
        mapping = tmp_path if case == "directory" else tmp_path / "nope" / "map.json"
        rc = main(
            [
                "perturb", "--problem", problem, "--input", str(src), "--fraction", "0.1",
                "--out-instance", str(sub), "--out-mapping", str(mapping),
            ]
        )
        assert rc == 64
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not sub.exists()

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

    def test_best_relative_gap_is_the_least_over_the_roundings(self, tmp_path, capsys):
        """``best relative gap`` is the minimum of the gaps of every rounding
        the run made: one per iteration (the CSV's ``rounded`` column) and
        the final one."""
        from _oracles import brute_force_qap

        q = random_qap(5, 0)
        optimum, _ = brute_force_qap(q.weights, q.distances)
        src, out = tmp_path / "q.dat", tmp_path / "q.csv"
        write_qaplib(q, src)
        rc = main(
            [
                "solve", "--problem", "qap", "--input", str(src), "--max-iters", "30",
                "--round", "--optimum", repr(optimum), "--out", str(out),
            ]
        )
        assert rc in (0, 2)
        text = capsys.readouterr().out
        final = float(re.search(r"^rounded value: (\S+)$", text, re.M).group(1))
        values = [float(row[8]) for row in read_rows(out)[1:]] + [final]
        gaps = [(v - optimum) / optimum for v in values]
        best = re.search(r"^best relative gap: (\S+)$", text, re.M).group(1)
        assert best == f"{min(gaps):.6g}"
        # the least gap is neither the first nor the last one
        assert min(gaps) < min(gaps[0], gaps[-1])


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["solve", "--problem", "maxcut", "--round", "--optimum", "2"], "qap only"),
        (["round", "--problem", "maxcut", "--optimum", "2"], "qap only"),
        (["solve", "--problem", "qap", "--optimum", "5"], "needs --round"),
        (["solve", "--problem", "qap", "--round", "--optimum", "0"], "finite and nonzero"),
        (["round", "--problem", "qap", "--optimum", "0"], "finite and nonzero"),
        (["solve", "--problem", "qap", "--round", "--optimum", "inf"], "finite and nonzero"),
    ],
    ids=["maxcut-solve", "maxcut-round", "qap-solve-without-round", "qap-solve-at-0",
         "qap-round-at-0", "qap-solve-at-inf"],
)
def test_optimum_that_nothing_reads_is_a_usage_error(tmp_path, capsys, argv, reason):
    """``--optimum`` scales only the relative gap of a QAP rounding: with
    MaxCut, in a QAP solve without ``--round``, and at 0 or inf it gave no
    gap, so it exits 64 before any file is read or written."""
    argv = argv + ["--input", str(tmp_path / "in"), "--out", str(tmp_path / "m.csv")]
    if argv[0] == "round":
        argv = argv[:-2] + ["--state", str(tmp_path / "s.bin")]
    else:
        argv += ["--save-state", str(tmp_path / "s.bin")]
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error: --optimum") and reason in err
    assert list(tmp_path.iterdir()) == []


def _negative_sign_row_warm_start(tmp_path) -> list[str]:
    """``solve`` argv that warm-starts a 4-slot QAP from a saved state with
    one inequality-row dual set to -5; the argv has no --out."""
    from specbundle.bundle import load_state, save_state, state_from_record
    from specbundle.problem import build_qap

    src, state = tmp_path / "q.dat", tmp_path / "q.bin"
    write_qaplib(random_qap(4, 0), src)
    argv = ["solve", "--problem", "qap", "--input", str(src), "--max-iters", "5"]
    assert main(argv + ["--out", str(tmp_path / "a.csv"), "--save-state", str(state)]) in (0, 2)
    prob = build_qap(parse_qaplib(src))
    saved = state_from_record(load_state(state), prob)
    assert saved.f_y is not None
    saved.y = saved.y.copy()
    saved.y[prob.ineq_idx[0]] = -5.0
    save_state(state, saved, prob)
    return argv + ["--warm-start", str(state)]


def test_warm_start_with_a_negative_sign_row_dual_exits_1(tmp_path, capsys):
    """A saved state carries f(y), so only the start-state check sees a dual
    below 0 on an inequality row: the resume exits 1 with a message."""
    argv = _negative_sign_row_warm_start(tmp_path)
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "b.csv")]) == 1
    err = capsys.readouterr().err
    assert "error: initial dual point violates the sign constraints" in err
    assert "Traceback" not in err


def test_warm_start_with_a_forged_f_y_exits_1(tmp_path, k3_file, capsys):
    """A converged K3 state whose f_y is rewritten to -1e300 passes the
    loader, which checks only finiteness; solve refuses it by name, so the
    hugely negative gap cannot certify the resume."""
    import struct

    state = tmp_path / "s.bin"
    argv = ["solve", "--problem", "maxcut", "--input", str(k3_file)]
    assert main(argv + ["--out", str(tmp_path / "a.csv"), "--save-state", str(state)]) == 0
    raw = state.read_bytes()
    f_y_at = state_header_offset("f_y")
    state.write_bytes(raw[:f_y_at] + struct.pack("<d", -1e300) + raw[f_y_at + 8:])
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "b.csv"), "--warm-start", str(state)]) == 1
    err = capsys.readouterr().err
    assert "error: initial f_y = -1e+300 is not" in err and "Traceback" not in err


def test_a_refused_solve_leaves_the_metrics_file_as_it_was(tmp_path, monkeypatch):
    """A run that ``solve`` refuses writes no metrics: an existing --out
    file keeps its bytes, and neither a new path nor the default
    ``metrics.csv`` is created."""
    argv = _negative_sign_row_warm_start(tmp_path)
    kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
    kept.write_bytes(b"iter,time_s\r\n0,1.5\r\n")
    assert main(argv + ["--out", str(kept)]) == 1
    assert main(argv + ["--out", str(new)]) == 1
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert kept.read_bytes() == b"iter,time_s\r\n0,1.5\r\n"
    assert not new.exists() and not (tmp_path / "metrics.csv").exists()
    # a run that starts replaces the whole file
    assert main(argv[: argv.index("--warm-start")] + ["--out", str(kept)]) in (0, 2)
    rows = read_rows(kept)
    assert rows[0] == cli_mod.CSV_HEADER
    assert [r[0] for r in rows[1:]] == [str(t) for t in range(len(rows) - 1)] != []
    assert {len(r) for r in rows} == {len(cli_mod.CSV_HEADER)}


def test_a_converged_state_resumes_converged_after_0_iterations(tmp_path, capsys):
    """A 40-vertex graph solved to convergence and saved resumes from its
    state file converged: exit 0 after 0 iterations."""
    path, state = tmp_path / "g.mtx", tmp_path / "conv.bin"
    write_graph_mm(random_graph(40, 0.15, 0), path)
    argv = ["solve", "--problem", "maxcut", "--input", str(path)]
    assert main(argv + ["--out", str(tmp_path / "conv.csv"), "--save-state", str(state)]) == 0
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "resume.csv"), "--warm-start", str(state)]) == 0
    assert re.search(r"^iterations: 0 ", capsys.readouterr().out, re.MULTILINE)


def test_sketch_rank_0_exits_with_message(tmp_path, capsys):
    """The primal store is always a sketch, so rank 0 is refused."""
    path = tmp_path / "g.mtx"
    write_graph_mm(random_graph(40, 0.15, 0), path)
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

    f_y_at, trace_at, cost_at, rho_at = (
        state_header_offset(name) for name in ("f_y", "trace", "cost_ip", "rho")
    )
    size = bundle._HEADER.size
    if case.startswith("version "):
        return raw[:4] + struct.pack("<I", int(case.split()[1])) + raw[8:]
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
        return raw[:cost_at] + struct.pack("<d", float("nan")) + raw[cost_at + 8:]
    if case == "-inf f_y":
        return raw[:f_y_at] + struct.pack("<d", -float("inf")) + raw[f_y_at + 8:]
    if case == "negative rho":
        return raw[:rho_at] + struct.pack("<d", -0.01) + raw[rho_at + 8:]
    raise AssertionError(case)


@pytest.mark.parametrize(
    "case, message",
    [
        ("version 2", "unsupported state file version 2"),
        ("version 3", "unsupported state file version 3"),
        ("version 4", "unsupported state file version 4"),
        ("version 6", "unsupported state file version 6"),
        ("truncated payload", "truncated"),
        ("trailing bytes", "trailing bytes"),
        ("nan in y", "non-finite"),
        ("inf in primal store", "non-finite"),
        ("inf trace", "non-finite"),
        ("nan cost", "non-finite"),
        ("-inf f_y", "non-finite"),
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
