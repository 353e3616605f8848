"""Command-line interface: subcommands, schemas, exit codes."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mpg
from mpg import (
    GenParams,
    Model,
    gen_random,
    parse_game,
    serialize_game,
    solve_threshold,
)
from mpg.cli import BENCH_HEADER, _config_from_args, build_parser, main
from mpg.solver import AssertLevel, SolverConfig, Stats
import conftest
from conftest import G3_TEXT, G4_TEXT, G5_TEXT


@pytest.fixture
def g3_file(tmp_path):
    path = tmp_path / "g3.mpg"
    path.write_text(G3_TEXT)
    return str(path)


@pytest.fixture
def g4_file(tmp_path):
    path = tmp_path / "g4.mpg"
    path.write_text(G4_TEXT)
    return str(path)


class TestSolve:
    def test_text_report(self, g3_file, capsys):
        assert main(["solve", g3_file]) == 0
        out = capsys.readouterr().out
        assert "min_region: [0, 1]" in out
        assert "max_region: []" in out

    def test_json_schema(self, g3_file, capsys):
        assert main(["solve", g3_file, "--json"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and ": " not in out  # one compact line
        doc = json.loads(out)
        assert doc["min_region"] == [0, 1]
        assert doc["max_region"] == []
        assert set(doc["potential"]) == {"0", "1"}
        assert doc["min_strategy"]["0"]["dst"] == 1
        assert "recursive_calls" in doc["stats"]

    def test_strict_threshold(self, g4_file, capsys):
        assert main(["solve", g4_file, "--strict-threshold"]) == 0
        out = capsys.readouterr().out
        assert "max_region: [0, 1]" in out

    def test_missing_file(self, capsys):
        assert main(["solve", "no-such-file.mpg"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.mpg"
        path.write_text("mpg 1\nvertex 0 MIN\n")
        assert main(["solve", str(path)]) == 2
        assert "sink" in capsys.readouterr().err

    def test_python_only_integer_spelling(self, tmp_path, capsys):
        path = tmp_path / "bad.mpg"
        bad_id = "mpg 1\nvertex 1_0 MIN\nedge 10 10 1\n"
        bad_weight = "mpg 1\nvertex 0 MIN\nedge 0 0 -\u0663\n"
        for text in (bad_id, bad_weight):
            path.write_bytes(text.encode("utf-8"))
            assert main(["solve", str(path)]) == 2
            assert "is not an integer" in capsys.readouterr().err

    def test_signed_vertex_id(self, tmp_path, capsys):
        path = tmp_path / "bad.mpg"
        for text in ("mpg 1\nvertex -0 MIN\nedge 0 0 1\n", "mpg 1\nvertex 1 MIN\nedge 1 -0 -3\n"):
            path.write_text(text)
            assert main(["solve", str(path)]) == 2
            assert "must be a non-negative integer: '-0'" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, g3_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", g3_file, "--frobnicate"])
        assert exc.value.code == 2

    def test_policy_flags_accepted(self, g3_file, capsys):
        code = main(
            [
                "solve", g3_file, "--policy", "always-n", "--opt-init",
                "--opt-bulk", "--remember-potentials", "--assert", "full",
            ]
        )
        assert code == 0

    def test_assert_env_override(self, g3_file, monkeypatch, capsys):
        monkeypatch.setenv("MPG_ASSERT", "full")
        assert main(["solve", g3_file]) == 0
        monkeypatch.setenv("MPG_ASSERT", "bogus")
        assert main(["solve", g3_file]) == 2

    def test_internal_error_maps_to_exit_3(self, g3_file, monkeypatch, capsys):
        from mpg import SolverInternalError
        import mpg.cli as cli_module

        def boom(*args, **kwargs):
            raise SolverInternalError("synthetic failure")

        monkeypatch.setattr(cli_module, "solve_threshold", boom)
        assert main(["solve", g3_file]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_values_overflow_guard_maps_to_exit_2(self, tmp_path, capsys):
        huge = 2**61
        path = tmp_path / "huge.mpg"
        path.write_text(f"mpg 1\nvertex 0 MIN\nedge 0 0 {huge}\n")
        assert main(["values", str(path)]) == 2
        assert "guard" in capsys.readouterr().err


class TestValues:
    def test_exact_rationals(self, g3_file, capsys):
        assert main(["values", g3_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"0": "-1/2", "1": "-1/2"}

    def test_strict_threshold_is_not_a_values_flag(self, g3_file):
        # solve_values picks the threshold mode of every probe itself.
        with pytest.raises(SystemExit) as exc:
            main(["values", g3_file, "--strict-threshold"])
        assert exc.value.code == 2


class TestZones:
    def test_json_sets(self, tmp_path, capsys):
        path = tmp_path / "g5.mpg"
        path.write_text(G5_TEXT)
        assert main(["zones", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "N": [3], "Z": [1, 2], "P": [0], "ZN": [3], "ZP": [0, 1, 2]
        }

    # Output of `mpg zones` per fixture, recorded when the zones were sets.
    FIXTURES = {
        "G1_TEXT": '{"N":[0],"Z":[],"P":[],"ZN":[0],"ZP":[]}\n',
        "G2_TEXT": '{"N":[],"Z":[],"P":[0],"ZN":[],"ZP":[0]}\n',
        "G3_TEXT": '{"N":[1],"Z":[],"P":[0],"ZN":[1],"ZP":[0]}\n',
        "G4_TEXT": '{"N":[1],"Z":[],"P":[0],"ZN":[1],"ZP":[0]}\n',
        "G5_TEXT": '{"N":[3],"Z":[1,2],"P":[0],"ZN":[3],"ZP":[0,1,2]}\n',
        "G8_TEXT": '{"N":[0],"Z":[],"P":[1,2],"ZN":[0],"ZP":[1,2]}\n',
        "G9_TEXT": '{"N":[0],"Z":[],"P":[1],"ZN":[0],"ZP":[1]}\n',
    }
    # sha256 of the output on n=200 games with W=3 (all five zones non-empty).
    GENERATED = {
        Model.UNIFORM: "f2bcb8d3a883800d54fa959c7b65bfd08cce1216ecaad0c7014d9eb980c0d255",
        Model.CYCLE_HEAVY: "eeeece5adc27a1d7d1b9fd8c5b9112d5dcded2f9d853985f8e3eb169650c5582",
        Model.LAYERED: "b5b33353d84fc9b3890d98ccc6aa62b7f186d131f238256830127696dabbdc68",
    }

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_output_is_unchanged(self, name, tmp_path, capsys):
        path = tmp_path / "g.mpg"
        path.write_text(getattr(conftest, name))
        assert main(["zones", str(path)]) == 0
        assert capsys.readouterr().out == self.FIXTURES[name]

    @pytest.mark.parametrize("model", list(GENERATED), ids=lambda m: m.value)
    def test_generated_output_is_unchanged(self, model, tmp_path, capsys):
        g = gen_random(GenParams(n=200, out_degree=(1, 4), weight_bound=3, model=model, seed=5))
        path = tmp_path / "g.mpg"
        path.write_bytes(serialize_game(g))
        assert main(["zones", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.GENERATED[model]


def _potential_file(path: Path, solve_json: str) -> str:
    """Write the potential of `solve --json` output as a potential file."""
    potential = json.loads(solve_json)["potential"]
    path.write_text("".join(f"{v} {x}\n" for v, x in potential.items()))
    return str(path)


class TestCheck:
    def test_valid_certificate(self, tmp_path, capsys):
        game = parse_game(G3_TEXT)
        gpath = tmp_path / "g.mpg"
        gpath.write_bytes(serialize_game(game))
        ppath = tmp_path / "phi.pot"
        # The potential `solve --json` emits for G3; it certifies (n+1)*w - 1.
        ppath.write_text("0 5\n1 0\n")
        assert main(["check", str(gpath), str(ppath)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reduced"] is True
        assert doc["min_region"] == [0, 1]

    def test_rejected_certificate(self, tmp_path, capsys):
        gpath = tmp_path / "g.mpg"
        gpath.write_text(G3_TEXT)
        ppath = tmp_path / "phi.pot"
        ppath.write_text("0 0\n1 0\n")
        assert main(["check", str(gpath), str(ppath)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["reduced"] is False

    def test_python_only_integer_spelling(self, g3_file, tmp_path, capsys):
        ppath = tmp_path / "phi.pot"
        for text in ("0 5\n1 1_0\n", "0 -\u0663\n"):
            ppath.write_bytes(text.encode("utf-8"))
            assert main(["check", g3_file, str(ppath)]) == 2
            assert "is not an integer" in capsys.readouterr().err

    def test_signed_vertex_id(self, g3_file, tmp_path, capsys):
        ppath = tmp_path / "phi.pot"
        ppath.write_text("-0 5\n")
        assert main(["check", g3_file, str(ppath)]) == 2
        assert "must be a non-negative integer: '-0'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--strict-threshold"]], ids=["weak", "strict"])
    def test_solve_then_check_round_trip(self, flags, tmp_path, capsys):
        models = ("uniform", "cycle-heavy", "layered")
        for seed in range(30):
            gpath = tmp_path / f"g{seed}.mpg"
            n = 30 if seed == 3 else 2 + seed
            gen = ["gen", "--n", str(n), "--seed", str(seed), "--model", models[seed % 3]]
            assert main([*gen, "-o", str(gpath)]) == 0
            assert main(["solve", "--json", str(gpath), *flags]) == 0
            out = capsys.readouterr().out
            solved = json.loads(out)
            ppath = _potential_file(tmp_path / f"g{seed}.pot", out)
            assert main(["check", str(gpath), ppath, *flags]) == 0, seed
            doc = json.loads(capsys.readouterr().out)
            assert doc["reduced"] is True
            assert doc["min_region"] == solved["min_region"], seed
            assert doc["max_region"] == solved["max_region"], seed

    @staticmethod
    def guard_chain(n: int, owner: str, sign: int) -> str:
        """A path of ``sign * W`` edges into a ``-sign * W`` self-loop, with
        W = (2**62 - 2) // (n + 1), the largest zero-cycle removal takes."""
        w = sign * ((2**62 - 2) // (n + 1))
        lines = ["mpg 1", *(f"vertex {v} {owner}" for v in range(n))]
        lines += [f"edge {v} {v + 1} {w}" for v in range(n - 1)]
        return "\n".join([*lines, f"edge {n - 1} {n - 1} {-w}", ""])

    @pytest.mark.parametrize("flags", [[], ["--strict-threshold"]], ids=["weak", "strict"])
    def test_potentials_past_64_bits_round_trip(self, flags, tmp_path, capsys):
        games = [(8, "MAX", 1)]  # solve gives vertex 0 the potential 32281802128991715293
        games += [(n, o, s) for n in range(2, 11) for o in ("MIN", "MAX") for s in (1, -1)]
        widest = 0
        for n, owner, sign in games:
            gpath = tmp_path / f"g{n}{owner}{sign}.mpg"
            gpath.write_text(self.guard_chain(n, owner, sign))
            assert main(["solve", "--json", str(gpath), *flags]) == 0
            out = capsys.readouterr().out
            solved = json.loads(out)
            widest = max(widest, *map(abs, solved["potential"].values()))
            ppath = _potential_file(tmp_path / "phi.pot", out)
            assert main(["check", str(gpath), ppath, *flags]) == 0, (n, owner, sign)
            doc = json.loads(capsys.readouterr().out)
            assert doc["reduced"] is True
            assert doc["min_region"] == solved["min_region"], (n, owner, sign)
            assert doc["max_region"] == solved["max_region"], (n, owner, sign)
        assert widest > 2**63

    def test_strict_certificate_needs_the_strict_flag(self, g4_file, tmp_path, capsys):
        assert main(["solve", "--json", "--strict-threshold", g4_file]) == 0
        ppath = _potential_file(tmp_path / "g4.pot", capsys.readouterr().out)
        assert main(["check", "--strict-threshold", g4_file, ppath]) == 0
        assert json.loads(capsys.readouterr().out)["max_region"] == [0, 1]
        main(["check", g4_file, ppath])
        assert json.loads(capsys.readouterr().out)["max_region"] != [0, 1]


class TestConfigFromArgs:
    @pytest.mark.parametrize(
        "argv",
        [["diff", "--count", "1"], ["bench", "--count", "1", "--n", "4", "--csv", "out.csv"]],
        ids=["diff", "bench"],
    )
    def test_unknown_assert_env_is_an_input_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("MPG_ASSERT", "bogus")
        assert main(argv) == 2
        assert "error: unknown assertion level" in capsys.readouterr().err

    def test_bench_flags_build_the_same_config(self):
        args = build_parser().parse_args(
            ["bench", "--csv", "x.csv", "--opt-init", "--opt-bulk",
             "--remember-potentials", "--assert", "off"]
        )
        assert _config_from_args(args) == SolverConfig(
            opt_init=True, opt_bulk=True, remember_potentials=True,
            assertions=AssertLevel.OFF,
        )

    def test_diff_uses_the_default_config(self, monkeypatch):
        monkeypatch.delenv("MPG_ASSERT", raising=False)
        args = build_parser().parse_args(["diff"])
        assert _config_from_args(args) == SolverConfig()

    @pytest.mark.parametrize(
        "argv", [["solve", "g.mpg"], ["values", "g.mpg"], ["bench", "--csv", "x.csv"]],
        ids=["solve", "values", "bench"],
    )
    def test_no_solver_flag_builds_the_default_config(self, argv, monkeypatch):
        monkeypatch.delenv("MPG_ASSERT", raising=False)
        assert _config_from_args(build_parser().parse_args(argv)) == SolverConfig()


class TestGen:
    def test_deterministic_output(self, capsys):
        assert main(["gen", "--n", "6", "--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--n", "6", "--seed", "11"]) == 0
        assert capsys.readouterr().out == first
        game = parse_game(first)
        assert game.n == 6

    def test_write_to_file(self, tmp_path):
        out = tmp_path / "game.mpg"
        assert main(["gen", "--n", "4", "--seed", "0", "-o", str(out)]) == 0
        assert parse_game(out.read_bytes()).n == 4

    def test_model_flag(self, capsys):
        assert main(["gen", "--n", "8", "--model", "layered", "--seed", "1"]) == 0
        parse_game(capsys.readouterr().out)

    def test_weights_beyond_64_bits_are_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "game.mpg"
        argv = ["gen", "--n", "3", "--weight-bound", str(2**70), "-o", str(out)]
        assert main(argv) == 2
        assert "64-bit" in capsys.readouterr().err
        assert not out.exists()


class TestDiff:
    def test_small_sweep_agrees(self, capsys):
        assert main(["diff", "--count", "6", "--max-n", "5", "--seed", "13"]) == 0
        assert "6/6 agree" in capsys.readouterr().out

    def test_zero_count_is_vacuous(self, capsys):
        assert main(["diff", "--count", "0"]) == 0
        assert "0/0 agree" in capsys.readouterr().out

    def test_corrupted_solver_is_caught(self, capsys):
        code = main(
            ["diff", "--count", "6", "--max-n", "5", "--seed", "13", "--self-test-corrupt"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "mismatch" in out and "mpg 1" in out

    @pytest.mark.parametrize("argv", [["--count", "-3"], ["--max-n", "1"], ["--max-n", "-4"]])
    def test_bad_count_or_size_is_an_input_error(self, argv, capsys):
        assert main(["diff", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "agree" not in captured.out


class TestBench:
    def test_stats_columns_follow_stats(self):
        # The header stays a literal for README readers; its counters sit
        # between wall_us and result_hash, in the order of Stats' fields.
        columns = BENCH_HEADER.split(",")
        counters = columns[columns.index("wall_us") + 1 : columns.index("result_hash")]
        assert counters == [f.name for f in dataclasses.fields(Stats)]

    def test_rows_per_instance_and_policy(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for seed in range(3):
            game_path = corpus / f"game{seed}.mpg"
            main(["gen", "--n", "5", "--seed", str(seed), "-o", str(game_path)])
        csv_path = tmp_path / "out.csv"
        code = main(
            [
                "bench", "--corpus", str(corpus), "--csv", str(csv_path),
                "--policy", "smaller-zone", "--policy", "always-n",
            ]
        )
        assert code == 0
        with csv_path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == BENCH_HEADER.split(",")
        assert len(rows) == 1 + 3 * 2

    def test_result_hash_config_invariant(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for seed in range(2):
            main(["gen", "--n", "6", "--seed", str(seed), "-o", str(corpus / f"g{seed}.mpg")])
        csv_path = tmp_path / "out.csv"
        assert main(
            ["bench", "--corpus", str(corpus), "--csv", str(csv_path), "--sweep-opts"]
        ) == 0
        with csv_path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 8
        by_instance = {}
        for row in rows:
            by_instance.setdefault(row["instance"], set()).add(row["result_hash"])
        for hashes in by_instance.values():
            assert len(hashes) == 1

    def test_empty_corpus(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        csv_path = tmp_path / "out.csv"
        assert main(["bench", "--corpus", str(corpus), "--csv", str(csv_path)]) == 0
        with csv_path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [BENCH_HEADER.split(",")]

    def test_missing_corpus_is_an_input_error(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        code = main(["bench", "--corpus", str(tmp_path / "absent"), "--csv", str(csv_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not csv_path.exists()

    def test_negative_count_is_an_input_error(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        assert main(["bench", "--count", "-1", "--csv", str(csv_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not csv_path.exists()

    def test_generated_instances(self, tmp_path):
        csv_path = tmp_path / "gen.csv"
        assert main(
            ["bench", "--csv", str(csv_path), "--count", "4", "--n", "6", "--seed", "2"]
        ) == 0
        with csv_path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert rows[0]["instance"] == "gen-2"


def _exit_code(argv) -> int:
    """``main``'s exit code, counting argparse's own exit as one."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _mangled(text: str):
    """Random bytes, or ``text`` with a random slice replaced by random bytes."""
    base = text.encode()
    return st.one_of(
        st.binary(max_size=200),
        st.tuples(st.integers(0, len(base)), st.integers(0, 8), st.binary(max_size=12)).map(
            lambda t: base[: t[0]] + t[2] + base[t[0] + t[1]:]
        ),
    )


# Each example rewrites the same file, so the per-test tmp_path is safe to share.
_PROPERTY = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestMalformedInput:
    """Whatever the flags or file contents, the CLI exits 0, 1 or 2, never with a traceback."""

    @pytest.mark.parametrize("command", ["gen", "bench"])
    def test_zero_denominator_fraction_is_an_input_error(self, command, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        argv = [command, "--n", "5", "--min-fraction", "1/0"]
        if command == "bench":
            argv += ["--count", "1", "--csv", str(csv_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not csv_path.exists()

    @_PROPERTY
    @given(
        n=st.integers(-2, 30),
        degrees=st.tuples(st.integers(-1, 5), st.integers(-1, 5)),
        bound=st.integers(-1, 40),
        fraction=st.one_of(
            st.text(max_size=6),
            st.tuples(st.integers(-2, 4), st.integers(-1, 4)).map(lambda t: f"{t[0]}/{t[1]}"),
        ),
        model=st.sampled_from(["uniform", "cycle-heavy", "layered", "other"]),
        seed=st.integers(-(2**65), 2**65),
    )
    def test_random_gen_flags(self, n, degrees, bound, fraction, model, seed, tmp_path):
        argv = [
            "gen", "--n", str(n), "--degree-min", str(degrees[0]), "--degree-max",
            str(degrees[1]), "--weight-bound", str(bound), f"--min-fraction={fraction}",
            "--model", model, "--seed", str(seed), "-o", str(tmp_path / "g.mpg"),
        ]
        assert _exit_code(argv) in (0, 1, 2)

    @_PROPERTY
    @given(data=_mangled(G5_TEXT))
    def test_random_game_file(self, data, tmp_path):
        path = tmp_path / "g.mpg"
        path.write_bytes(data)
        for command in (["solve", "--json"], ["zones"]):
            assert _exit_code([*command, str(path)]) in (0, 1, 2)

    @_PROPERTY
    @given(data=_mangled("0 3\n1 -4\n"))
    def test_random_potential_file(self, data, g3_file, tmp_path):
        path = tmp_path / "g.pot"
        path.write_bytes(data)
        assert _exit_code(["check", g3_file, str(path)]) in (0, 1, 2)


class TestConsoleScript:
    """The `mpg` console script declared in pyproject.toml, run in its own process.

    The suite runs from a source checkout with only `src` on the import path,
    so no generated `mpg` wrapper need exist. The declared target is therefore
    run the way the wrapper runs it, `sys.exit(<func>())` in a fresh
    interpreter, and an installed `mpg` on PATH is checked as well when present.
    """

    @staticmethod
    def _declared_target():
        try:
            import tomllib
        except ModuleNotFoundError:  # Python < 3.11
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as fh:
            return tomllib.load(fh)["project"]["scripts"]["mpg"]

    @staticmethod
    def _source_env():
        src = str(Path(mpg.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        return env

    def test_installed_entry_point(self, g3_file, tmp_path):
        target = self._declared_target()
        assert target == "mpg.cli:main"
        module, func = target.split(":")
        wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
        launchers = [([sys.executable, "-c", wrapper], self._source_env())]
        installed = shutil.which("mpg")
        if installed is not None:
            launchers.append(([installed], None))

        missing = str(tmp_path / "missing.mpg")
        for command, env in launchers:
            proc = subprocess.run(
                [*command, "solve", g3_file], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            assert "min_region: [0, 1]" in proc.stdout

            proc = subprocess.run(
                [*command, "solve", missing], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 2
            assert "error" in proc.stderr


class TestReadme:
    """README.md names every configuration field and command-line flag."""

    README = Path(__file__).resolve().parent.parent / "README.md"

    def test_config_table_matches_solver_config(self):
        text = self.README.read_text(encoding="utf-8")
        table = text.split("`SolverConfig` fields:", 1)[1].split("\n\n")[1]
        rows = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
        assert rows == [f.name for f in dataclasses.fields(SolverConfig)]

    def test_every_long_flag_is_documented(self):
        flags = set()
        parsers = [build_parser()]
        while parsers:
            parser = parsers.pop()
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
                elif not isinstance(action, argparse._HelpAction):
                    flags.update(o for o in action.option_strings if o.startswith("--"))
        assert len(flags) > 15
        text = self.README.read_text(encoding="utf-8")
        assert sorted(f for f in flags if not re.search(re.escape(f) + r"(?![\w-])", text)) == []


def test_version_is_written_once():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with warnings.catch_warnings():
        # setuptools marks its [tool.setuptools] table as beta.
        warnings.simplefilter("ignore")
        project = pyprojecttoml.read_configuration(path, expand=True)["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == mpg.__version__
