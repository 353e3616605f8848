"""Command-line interface: subcommands, schemas, exit codes."""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mpg
from mpg import parse_game, serialize_game, serialize_potential, solve_threshold
from mpg.cli import BENCH_HEADER, _config_from_args, build_parser, main
from mpg.solver import AssertLevel, SolverConfig
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
        doc = json.loads(capsys.readouterr().out)
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
        ppath.write_bytes(serialize_potential(game, {0: 5, 1: 0}))
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


class TestBench:
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

    def test_generated_instances(self, tmp_path):
        csv_path = tmp_path / "gen.csv"
        assert main(
            ["bench", "--csv", str(csv_path), "--count", "4", "--n", "6", "--seed", "2"]
        ) == 0
        with csv_path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert rows[0]["instance"] == "gen-2"


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
