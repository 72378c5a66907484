"""Stock games, learners and crosstables used by the examples and tests.

Everything here is plain data: three small games that cover the interesting
classifications, a nine-member learner catalog that spans the evaluation
outcomes (constants, a best-responder, branching, simulators, a spinner
that is provably non-halting, and a state-grower that defeats the prover),
and a three-engine crosstable whose narrow cycle disappears once the draw
margin widens past the score gaps.
"""
from __future__ import annotations

import numpy as np

from .arena import ProgramLearner
from .game_core import GameTable

EXPLOITER_SOURCE = (
    "match sim(opp, self, rest) "
    "{ halted(k) => bestresp(k) | exhausted => const 1 }"
)

MIRROR_SOURCE = (
    "match sim(opp, self, rest) "
    "{ halted(k) => k | exhausted => const 1 }"
)


def rps() -> GameTable:
    """Rock-paper-scissors, the smallest strongly intransitive game."""
    entries = np.array(
        [[0, -1, 1],
         [1, 0, -1],
         [-1, 1, 0]], dtype=np.int8)
    return GameTable(
        name="rps", entries=entries, symmetric_flag=True,
        labels_rows=("R", "P", "S"), labels_cols=("R", "P", "S"),
    )


def dice() -> GameTable:
    """Six-sided die race: higher face wins.  Face 6 weakly dominates."""
    faces = np.arange(1, 7)
    entries = np.sign(faces[:, None] - faces[None, :]).astype(np.int8)
    return GameTable(name="dice", entries=entries, symmetric_flag=True)


def pennies() -> GameTable:
    """Matching pennies: the row player wins on a match.

    The canonical seat-asymmetric game; it has no pure equilibrium and is
    not representable as a symmetric table.
    """
    entries = np.array([[1, -1], [-1, 1]], dtype=np.int8)
    return GameTable(
        name="pennies", entries=entries, symmetric_flag=False,
        labels_rows=("H", "T"), labels_cols=("H", "T"),
    )


ENGINES3_TEXT = (
    "names,Stockfish,FatFritz,Houdini\n"
    "Stockfish,,0.55,0.45\n"
    "FatFritz,0.45,,0.55\n"
    "Houdini,0.55,0.45,\n"
)

# Name/source pairs, in catalog order.  The sources exercise every shape of
# evaluation outcome when run against each other on rps.
CATALOG: tuple[tuple[str, str], ...] = (
    ("const_rock", "const 1"),
    ("const_paper", "const 2"),
    ("const_scissors", "const 3"),
    ("counter_rock", "bestresp(const 1)"),
    ("pick_paper", "if 1 == 1 then const 2 else const 3"),
    ("mirror", MIRROR_SOURCE),
    ("loop", "loop"),
    ("grow", "grow"),
    ("exploiter", EXPLOITER_SOURCE),
)


def catalog_learners() -> list[ProgramLearner]:
    """Fresh learner objects for the whole catalog, in order."""
    return [ProgramLearner(name, source) for name, source in CATALOG]
