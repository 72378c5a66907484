import glob
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import REPO_ROOT
from opencomp import (
    GameTable, ProgramLearner, classify, ingest_crosstable, parse_game,
    parse_learner_file, render_classification, render_report,
    rps, run_tournament, serialize_game,
)
from opencomp.cli import _build_parser, dispatch, main

# Every command, as the top-level usage lists them: "{classify,cycles,...}".
COMMANDS = re.search(r"\{(.*?)\}", _build_parser().format_usage()).group(1).split(",")
# The commands that read games through a required --game.
GAME_COMMANDS = ["classify", "cycles", "nash", "arena", "tournament", "series", "maxmin"]


def run(*argv):
    return dispatch(list(argv))


class TestClassifyCommand:
    def test_bundled_name(self):
        code, out, err = run("classify", "--game", "rps")
        assert code == 0 and err == ""
        assert "classification=StronglyIntransitive" in out

    def test_game_file(self, repo_root):
        code, out, _ = run("classify", "--game", str(repo_root / "games/dice.gm"))
        assert code == 0
        assert "classification=WeakDomination" in out
        assert "dominator=6" in out

    def test_assert_class_pass_and_fail(self):
        code, _, _ = run(
            "classify", "--game", "rps", "--assert-class", "StronglyIntransitive"
        )
        assert code == 0
        code, out, err = run(
            "classify", "--game", "rps", "--assert-class", "WeakDomination"
        )
        assert code == 3
        assert "classification=StronglyIntransitive" in out  # still reported
        assert "expected WeakDomination" in err

    def test_file_shadows_builtin_name(self, tmp_path, monkeypatch):
        shadow = tmp_path / "rps"
        shadow.write_text(serialize_game(rps()).replace("game rps", "game shadow"))
        monkeypatch.chdir(tmp_path)
        code, out, _ = run("classify", "--game", "rps")
        assert code == 0
        assert "game=shadow" in out


class TestOtherCommands:
    def test_cycles(self):
        code, out, _ = run("cycles", "--game", "rps", "--max-len", "3")
        assert code == 0
        assert "cycle: R -> P -> S -> R" in out

    def test_cycles_needs_symmetry(self):
        code, _, err = run("cycles", "--game", "pennies")
        assert code == 2
        assert "symmetric" in err

    def test_nash(self):
        code, out, _ = run("nash", "--game", "dice")
        assert code == 0
        assert out.splitlines() == ["game=dice", "pure_nash=1", "cell 6 6"]

    def test_arena(self, repo_root):
        code, out, _ = run(
            "arena", "--game", "rps",
            "--p1", str(repo_root / "learners/exploiter.lrn"),
            "--p2", str(repo_root / "learners/const_rock.lrn"),
            "--fuel", "2000",
        )
        assert code == 0
        assert "result=Win1" in out
        assert "play1=2 play2=1" in out

    def test_arena_deadline_mode(self, repo_root):
        code, out, _ = run(
            "arena", "--game", "rps",
            "--p1", str(repo_root / "learners/const_rock.lrn"),
            "--p2", str(repo_root / "learners/grow.lrn"),
            "--fuel", "500", "--mode", "deadline",
        )
        assert code == 0
        assert "result=Win1" in out

    def test_tournament(self, repo_root):
        learners = [
            str(repo_root / "learners" / name)
            for name in ("const_rock.lrn", "const_paper.lrn", "exploiter.lrn")
        ]
        code, out, _ = run(
            "tournament", "--game", "rps", "--learners", *learners,
            "--fuel", "800",
        )
        assert code == 0
        assert out.rstrip().endswith("universal_winner=exploiter")

    def test_tournament_workers_flag_is_rejected(self, repo_root):
        learners = [
            str(repo_root / "learners" / name)
            for name in ("const_rock.lrn", "mirror.lrn", "exploiter.lrn")
        ]
        code, out, err = run("tournament", "--game", "rps", "--learners",
                             *learners, "--fuel", "600", "--workers", "4")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --workers 4" in err

    def test_demo(self):
        code, out, _ = run("demo", "--fuel", "600")
        assert code == 0
        assert "universal_winner=none" in out
        assert "exploiter_defeated=true" in out

    def test_series(self, repo_root):
        path = str(repo_root / "games/rps.gm")
        code, out, _ = run(
            "series", "--game", path, "--game", path, "--aggregate", "sum"
        )
        assert code == 0
        assert out.startswith("game series-rps-rps\n")

    def test_maxmin(self):
        code, out, _ = run("maxmin", "--game", "pennies", "--iters", "20000")
        assert code == 0
        assert out.startswith("p1=<")
        assert "exploitability=" in out

    def test_crosstable(self, repo_root):
        path = str(repo_root / "crosstables/engines3.ct")
        code, out, _ = run(
            "crosstable", path, "--margin", "0.01", "--name", "engines3"
        )
        assert code == 0
        assert out.startswith("game engines3\n")
        assert "labels_rows Stockfish FatFritz Houdini" in out

    def test_crosstable_margin_validation(self, repo_root):
        path = str(repo_root / "crosstables/engines3.ct")
        code, _, err = run("crosstable", path, "--margin", "0.9")
        assert code == 2
        assert "margin" in err

    def test_enumerate(self):
        code, out, _ = run("enumerate", "--rows", "2", "--cols", "2")
        assert code == 0
        assert out == "games=81\n"

    def test_enumerate_prints_counts_of_4300_digits_in_full(self):
        code, out, _ = run("enumerate", "--rows", "1", "--cols", "9012")
        assert code == 0
        assert out == f"games={3 ** 9012}\n"
        assert len(out) == len("games=\n") + 4300

    @pytest.mark.parametrize("rows, cols", [(1, 9013), (10_000, 10_000)])
    def test_enumerate_prints_larger_counts_as_powers(self, rows, cols):
        start = time.perf_counter()
        code, out, err = run("enumerate", "--rows", str(rows), "--cols", str(cols))
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (0, f"games=3^{rows * cols}\n", "")

    @pytest.mark.parametrize("rows, cols, message", [
        (0, 2, "both dimensions must be at least 1"),
        (10_001, 20_000, "dimensions are capped at 10000"),
    ])
    def test_enumerate_rejects_shapes_no_table_has(self, rows, cols, message):
        code, out, err = run("enumerate", "--rows", str(rows), "--cols", str(cols))
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestErrorHandling:
    def test_no_command_is_a_usage_error(self):
        code, out, err = run()
        assert code == 1 and out == "" and err != ""

    def test_unknown_command(self):
        code, _, err = run("conquer")
        assert code == 1
        assert "invalid choice" in err

    def test_aggregate_takes_sum_or_lex(self):
        code, _, err = run(
            "series", "--game", "rps", "--game", "rps", "--aggregate", "majority"
        )
        assert code == 1
        assert "invalid choice: 'majority'" in err

    @pytest.mark.parametrize("argv, choices", [
        (["arena", "--game", "rps", "--p1", "a", "--p2", "b", "--mode", "bogus"],
         "'strict', 'deadline'"),
        (["tournament", "--game", "rps", "--learners", "a", "--mode", "bogus"],
         "'strict', 'deadline'"),
        (["classify", "--game", "rps", "--assert-class", "bogus"],
         "'StrictDomination', 'WeakDomination', 'StronglyIntransitive', 'Other'"),
        (["series", "--game", "rps", "--aggregate", "bogus"], "'sum', 'lex'"),
    ], ids=["arena-mode", "tournament-mode", "assert-class", "aggregate"])
    def test_a_bad_choice_lists_the_choices_as_plain_strings(self, argv, choices):
        code, out, err = run(*argv)
        assert (code, out) == (1, "")
        assert f"invalid choice: 'bogus' (choose from {choices})" in err

    @pytest.mark.parametrize("command", GAME_COMMANDS)
    def test_missing_required_flag(self, command):
        code, _, err = run(command)
        assert code == 1
        assert "--game" in err

    @pytest.mark.parametrize("argv, what, path", [
        (("classify", "--game", "/no/such/file.gm"), "game file", "/no/such/file.gm"),
        (("arena", "--game", "rps", "--p1", "/no/such/p1.lrn", "--p2", "/no/such/p2.lrn"),
         "learner file", "/no/such/p1.lrn"),
        (("crosstable", "/no/such/table.csv"), "crosstable", "/no/such/table.csv"),
    ], ids=["game", "learner", "crosstable"])
    def test_missing_file(self, argv, what, path):
        code, _, err = run(*argv)
        assert code == 2
        assert err.startswith(f"error: cannot read {what} {path}:")

    def test_malformed_game_file(self, tmp_path):
        bad = tmp_path / "bad.gm"
        bad.write_text("game x\nsymmetric false\nrows 1 cols 1\nrow 1: 5\n")
        code, _, err = run("classify", "--game", str(bad))
        assert code == 2
        assert "line 4" in err

    def test_malformed_learner_file(self, tmp_path):
        bad = tmp_path / "bad.lrn"
        bad.write_text("learner broken\nconst\n")
        code, _, err = run(
            "arena", "--game", "rps", "--p1", str(bad), "--p2", str(bad)
        )
        assert code == 2

    def test_malformed_learner_file_gives_the_line_of_the_file(self, tmp_path):
        bad = tmp_path / "bad.lrn"
        bad.write_text("learner bad\nconst 1 2\n")
        code, out, err = run(
            "arena", "--game", "rps", "--p1", str(bad), "--p2", str(bad)
        )
        assert (code, out) == (2, "")
        assert err == "error: trailing content '2' after program (line 2, col 9)\n"

    @pytest.mark.parametrize("data, message", [
        (b"learner a\nconst\x0c1\n", "unexpected character '\\x0c' (line 2, col 6)"),
        (b"learner a\x1cconst 2\n", "first line must be 'learner <name>' (line 1)"),
        (b"", "empty learner file"),
    ], ids=["ff", "fs-in-header", "empty"])
    def test_learner_file_lines_end_only_at_newlines(self, tmp_path, data, message):
        bad = tmp_path / "bad.lrn"
        bad.write_bytes(data)
        code, out, err = run(
            "arena", "--game", "rps", "--p1", str(bad), "--p2", str(bad)
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_learner_files_with_any_line_ends_play_alike(self, tmp_path):
        outs = []
        for end in (b"\n", b"\r\n", b"\r"):
            path = tmp_path / "paper.lrn"
            path.write_bytes(end.join([b"learner paper", b"const", b"2", b""]))
            code, out, err = run(
                "arena", "--game", "rps", "--p1", str(path), "--p2", str(path)
            )
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    def test_bad_crosstable(self, tmp_path):
        bad = tmp_path / "bad.ct"
        bad.write_text("names,A,B\nA,,0.9\nB,0.9,\n")
        code, _, err = run("crosstable", str(bad))
        assert code == 2
        assert "sum to" in err

    def test_crosstable_name_that_is_no_game_label(self, tmp_path, repo_root):
        bad = tmp_path / "bad.ct"
        bad.write_text("names,Stock fish,B\nStock fish,,0.7\nB,0.3,\n")
        code, out, err = run("crosstable", str(bad))
        assert (code, out) == (2, "")
        assert "'Stock fish' must be one word" in err
        path = str(repo_root / "crosstables/engines3.ct")
        code, out, err = run("crosstable", path, "--name", "my game")
        assert (code, out) == (2, "")
        assert "'my game' must be one word" in err

    def test_series_shape_mismatch(self, repo_root):
        code, _, err = run(
            "series", "--game", str(repo_root / "games/rps.gm"),
            "--game", str(repo_root / "games/dice.gm"),
        )
        assert code == 2

    def test_maxmin_rejects_a_nan_tolerance(self):
        code, out, err = run("maxmin", "--game", "rps", "--tol", "nan")
        assert (code, out) == (2, "")
        assert "NaN" in err

    @pytest.mark.parametrize("iters", [2**63 - 1, 2**63, 10**20])
    def test_maxmin_names_the_largest_count(self, iters):
        code, out, err = run("maxmin", "--game", "dice", "--iters", str(iters))
        assert (code, out) == (2, "")
        assert err == "error: iterations must be at most 9223372036854775806\n"

    @pytest.mark.parametrize("learners", [
        ["loop.lrn"], ["loop.lrn", "const_rock.lrn"],
    ], ids=["one", "two"])
    def test_negative_fuel_is_a_data_error(self, repo_root, learners):
        code, out, err = run(
            "tournament", "--game", "rps", "--fuel", "-1", "--learners",
            *(str(repo_root / "learners" / name) for name in learners),
        )
        assert (code, out, err) == (2, "", "error: fuel must be non-negative\n")

    def test_duplicate_learner_names_are_a_data_error(self, repo_root):
        path = str(repo_root / "learners" / "loop.lrn")
        code, out, err = run("tournament", "--game", "rps", "--learners", path, path)
        assert (code, out, err) == (2, "", "error: learner names must be unique\n")

    def test_dispatch_never_raises(self):
        for argv in (
            ["classify", "--game"],
            ["enumerate", "--rows", "0", "--cols", "2"],
            ["maxmin", "--game", "rps", "--iters", "-3"],
            ["arena", "--game", "rps", "--p1", "x", "--p2"],
        ):
            code, _, _ = dispatch(argv)
            assert code in (1, 2, 3)


class TestHelp:
    # The text's width follows COLUMNS, so only its content is checked.
    @pytest.mark.parametrize("argv, usage", [
        (["--help"], "usage: opencomp [-h]"),
        *(([command, "-h"], f"usage: opencomp {command} [-h]") for command in COMMANDS),
    ])
    def test_help_is_returned_not_printed(self, capsys, argv, usage):
        code, out, err = dispatch(argv)
        assert (code, err) == (0, "")
        assert out.startswith(usage)
        assert capsys.readouterr() == ("", "")

    def test_main_prints_the_help_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr() == (dispatch(["--help"])[1], "")


class TestSharedParser:
    def test_one_parser_serves_every_call(self):
        assert _build_parser() is _build_parser()

    def test_it_keeps_no_state_between_calls(self, repo_root):
        usage_error = ["tournament", "--game", "rps"]
        calls = [
            usage_error,
            ["tournament", "--game", "rps", "--fuel", "50",
             "--learners", *(str(repo_root / "learners" / name)
                             for name in ("loop.lrn", "const_rock.lrn"))],
            usage_error,
            ["--help"],
            ["series", "--game", "rps", "--game", "rps", "--aggregate", "lex"],
            ["series", "--game", "rps"],
            ["tournament", "-h"],
            [],
        ]
        shared = [dispatch(argv) for argv in calls]
        fresh = []
        for argv in calls:
            _build_parser.cache_clear()
            fresh.append(dispatch(argv))
        assert shared == fresh
        assert shared[0] == shared[2] and shared[0][0] == 1
        assert shared[1][0] == 0
        assert shared[3][0] == 0 and shared[3][1].startswith("usage: opencomp")


def _line_end_variants(data: bytes) -> dict[str, bytes]:
    lines = data.split(b"\n")
    return {
        "lf": data,
        "crlf": data.replace(b"\n", b"\r\n"),
        "cr": data.replace(b"\n", b"\r"),
        "mixed": b"".join(
            line + (b"\n", b"\r\n", b"\r")[i % 3] for i, line in enumerate(lines)
        ),
        "trailing-cr": data + b"\r",
        "bom": b"\xef\xbb\xbf" + data,
        "beyond-ascii": "# \u00e9t\u00e9 \u2028\n".encode() + data,
        "empty": b"",
    }


_ROCK = REPO_ROOT / "learners" / "const_rock.lrn"


def _library(kind: str, text: str) -> tuple[int, str, str]:
    """What the CLI should answer for a file that reads as ``text``, worked
    out with the library: the command ``_READ_ARGV[kind]`` runs."""
    try:
        if kind == "game":
            game = parse_game(text)
            return 0, render_classification(game, classify(game)), ""
        if kind == "learner":
            learners = [
                ProgramLearner(*parse_learner_file(source))
                for source in (text, _ROCK.read_text())
            ]
            report = run_tournament(rps(), learners, fuel=1000, mode="strict")
            return 0, render_report(report), ""
        return 0, serialize_game(ingest_crosstable(text)), ""
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"


_READ_ARGV = {
    "game": lambda path: ["classify", "--game", path],
    "learner": lambda path: [
        "tournament", "--game", "rps", "--fuel", "1000",
        "--learners", path, str(_ROCK),
    ],
    "crosstable": lambda path: ["crosstable", path],
}
_READ_SOURCES = {
    "game": ["games/rps.gm", "games/dice.gm"],
    "learner": ["learners/exploiter.lrn", "learners/mirror.lrn"],
    "crosstable": ["crosstables/engines3.ct"],
}


class TestFileReading:
    """Every input file reads as ``Path.read_text`` reads it in a UTF-8
    locale: UTF-8, with ``\\r\\n`` and then ``\\r`` read as ``\\n``."""

    @pytest.mark.parametrize("kind, source", [
        (kind, source) for kind, sources in _READ_SOURCES.items() for source in sources
    ])
    @pytest.mark.parametrize("variant", list(_line_end_variants(b"")))
    def test_any_line_ends_read_as_read_text_reads_them(
        self, tmp_path, kind, source, variant
    ):
        data = _line_end_variants((REPO_ROOT / source).read_bytes())[variant]
        path = tmp_path / "input"
        path.write_bytes(data)
        expected = _library(kind, path.read_text())
        assert run(*_READ_ARGV[kind](str(path))) == expected
        if variant in ("lf", "crlf", "cr", "mixed", "trailing-cr"):
            assert expected[0] == 0

    @pytest.mark.parametrize("kind, data, position", [
        ("game", b"game x\r\nsymmetric true\r\n\xff\r\n", 24),
        ("learner", b"learner a\r\nconst 1\r\n\xff", 20),
        ("crosstable", b"names,A,B\r\nA,,0.5\r\n\xc3\r\nB,0.5,\r\n", 19),
        ("game", b"game x\r\nsymmetric true\r\nrows 1 cols 1\r\nrow 1: 0 # \xe2\x82", 50),
    ], ids=["game", "learner", "crosstable", "cut-short"])
    def test_a_byte_that_is_not_utf8_is_placed_in_the_file_as_it_is(
        self, tmp_path, kind, data, position
    ):
        # The line ends before the bad byte are counted as they stand in
        # the file, two bytes each, as ``read_text`` counts them.
        path = tmp_path / "input"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as info:
            path.read_text()
        assert info.value.start == position
        assert run(*_READ_ARGV[kind](str(path))) == (2, "", f"error: {info.value}\n")

    @pytest.mark.parametrize("kind, what", [
        ("game", "game file"), ("learner", "learner file"), ("crosstable", "crosstable"),
    ])
    def test_missing_files_and_directories_cannot_be_read(
        self, tmp_path, monkeypatch, kind, what
    ):
        # Named in the error as ``Path`` names them: "." parts and extra
        # slashes dropped.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        for path in ("missing", "./sub//missing", "sub", "./sub/", str(tmp_path)):
            with pytest.raises(OSError) as info:
                Path(path).read_text()
            assert run(*_READ_ARGV[kind](path)) == (
                2, "", f"error: cannot read {what} {path}: {info.value}\n"
            )

    def test_a_file_path_reads_as_path_reads_it(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "rps.gm").write_bytes((REPO_ROOT / "games/rps.gm").read_bytes())
        expected = run("classify", "--game", "rps.gm")
        assert expected[0] == 0
        for path in ("./rps.gm", ".//rps.gm", "rps.gm/", f"{tmp_path}/./rps.gm/"):
            assert run("classify", "--game", path) == expected

    def test_a_large_game_file_is_held_once(self, tmp_path):
        # The file's bytes go to ``parse_game``, which decodes them a line
        # at a time: the read holds no decoded copy of the text beside them.
        n = 2000
        upper = np.triu(
            np.random.default_rng(4).integers(-1, 2, (n, n), dtype=np.int8), 1
        )
        path = tmp_path / "big.gm"
        path.write_text(serialize_game(
            GameTable(name="big", entries=upper - upper.T, symmetric_flag=True)
        ))
        del upper
        size = path.stat().st_size
        tracemalloc.start()
        try:
            code, out, err = run("classify", "--game", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert peak < 1.7 * size


def _module_env() -> dict[str, str]:
    """The test process's environment, with this checkout's ``src`` first on
    the child's module path, so ``python -m opencomp`` runs uninstalled."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "opencomp", "classify", "--game", "rps"],
            capture_output=True, text=True, timeout=60, env=_module_env(),
        )
        assert proc.returncode == 0
        assert "StronglyIntransitive" in proc.stdout

    def test_module_invocation_propagates_exit_codes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "opencomp", "classify", "--game",
             "rps", "--assert-class", "Other"],
            capture_output=True, text=True, timeout=60, env=_module_env(),
        )
        assert proc.returncode == 3


def _readme_commands() -> list[list[str]]:
    """Arguments of each ``opencomp`` line in README's "Command line" block."""
    section = (REPO_ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("opencomp ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_lines_run(argv, monkeypatch):
    # Run from the checkout's root, as the README's relative paths are, and
    # expand the globs a shell would.
    monkeypatch.chdir(REPO_ROOT)
    args = []
    for arg in argv:
        paths = sorted(glob.glob(arg)) if "*" in arg else [arg]
        assert paths, arg
        args += paths
    code, out, err = dispatch(args)
    assert (code, err) == (0, "")
    assert out


def test_readme_shows_every_command():
    assert sorted(argv[0] for argv in _readme_commands()) == sorted(COMMANDS)
