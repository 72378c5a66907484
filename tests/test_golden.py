"""Reports compared byte for byte with the committed copies in ``golden/``.

Covers the CLI tournament over the bundled learner files, the CLI demo, and
the stdout of every gallery script.  Every report is deterministic, so a
change that is meant to leave reports alone (a refactor, a speed-up) must
leave these files alone too.  After a change that is meant to alter a
report, rewrite the file from the new output and review the diff.
"""
import os
import subprocess
import sys

import pytest

from opencomp.cli import dispatch

from conftest import REPO_ROOT

GOLDEN = REPO_ROOT / "tests" / "golden"
GALLERY = sorted((REPO_ROOT / "gallery").glob("*.py"))


def _dispatch_stdout(argv: list[str]) -> bytes:
    code, out, err = dispatch(argv)
    assert (code, err) == (0, "")
    return out.encode()


def test_tournament_report():
    learners = sorted(str(path) for path in (REPO_ROOT / "learners").glob("*.lrn"))
    out = _dispatch_stdout(
        ["tournament", "--game", "rps", "--learners", *learners, "--fuel", "100000"]
    )
    assert out == (GOLDEN / "tournament_rps_catalog.txt").read_bytes()


def test_demo_report():
    assert _dispatch_stdout(["demo"]) == (GOLDEN / "demo.txt").read_bytes()


def test_gallery_scripts_are_found():
    # guards the parametrized test below against passing on an empty glob
    assert len(GALLERY) == 5


@pytest.mark.parametrize("script", GALLERY, ids=lambda path: path.stem)
def test_gallery_stdout(script):
    path = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, timeout=120,
        cwd=REPO_ROOT, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"gallery_{script.stem}.txt").read_bytes()
