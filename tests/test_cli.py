import subprocess
import sys

import pytest

from opencomp import serialize_game, rps
from opencomp.cli import dispatch


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


class TestErrorHandling:
    def test_no_command_is_a_usage_error(self):
        code, out, err = run()
        assert code == 1 and out == "" and err != ""

    def test_unknown_command(self):
        code, _, err = run("conquer")
        assert code == 1
        assert "invalid choice" in err

    def test_missing_required_flag(self):
        code, _, err = run("classify")
        assert code == 1
        assert "--game" in err

    def test_missing_file(self):
        code, _, err = run("classify", "--game", "/no/such/file.gm")
        assert code == 2
        assert "cannot read" in err

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

    def test_dispatch_never_raises(self):
        for argv in (
            ["classify", "--game"],
            ["enumerate", "--rows", "0", "--cols", "2"],
            ["maxmin", "--game", "rps", "--iters", "-3"],
            ["arena", "--game", "rps", "--p1", "x", "--p2"],
        ):
            code, _, _ = dispatch(argv)
            assert code in (1, 2, 3)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "opencomp", "classify", "--game", "rps"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "StronglyIntransitive" in proc.stdout

    def test_module_invocation_propagates_exit_codes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "opencomp", "classify", "--game",
             "rps", "--assert-class", "Other"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3
