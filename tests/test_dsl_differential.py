"""``evaluate`` against the fingerprinting evaluator it replaced.

The library decides ``loop`` and ``grow`` at their own node; the oracle in
``fingerprint_oracle.py`` sizes and hashes the whole state on every step.
They must agree on kind, strategy, witness and ``fuel_used`` everywhere,
faults included.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingerprint_oracle import fingerprint_evaluate
from opencomp import (
    EXPLOITER_SOURCE, EvalKind, RuntimeFault, evaluate, parse_program, pretty,
)
from opencomp.dsl import _parse_source
from test_dsl import env_for, program_trees

_FUELS = st.one_of(
    st.sampled_from([0, 1, 2, 3, 5, 10, 50, 200, 1000]), st.integers(0, 300)
)
_CAPS = st.sampled_from([1, 60, 200, 65536])
_OPPONENTS = st.one_of(
    st.sampled_from(["const 1", "const 2", "loop", "grow", EXPLOITER_SOURCE]),
    program_trees.map(pretty),
)


def _run(evaluator, source, env):
    try:
        result = evaluator(source, env)
    except RuntimeFault as fault:
        return ("fault", str(fault), fault.fuel_used)
    return (result.kind, result.strategy, result.witness, result.fuel_used)


def _both(source, env):
    return _run(evaluate, source, env), _run(fingerprint_evaluate, source, env)


@given(program_trees, _OPPONENTS, _FUELS, _CAPS)
@settings(max_examples=300, deadline=None)
def test_agrees_with_the_fingerprint_oracle(tree, opponent, fuel, cap):
    source = pretty(tree)
    env = env_for(opponent=opponent, me=source, fuel=fuel, memory_cap=cap)
    new, old = _both(source, env)
    assert new == old


@given(program_trees, _OPPONENTS, _FUELS, _CAPS)
@settings(max_examples=150, deadline=None)
def test_cold_and_warm_parse_cache_agree_with_the_oracle(tree, opponent, fuel, cap):
    source = pretty(tree)
    env = env_for(opponent=opponent, me=source, fuel=fuel, memory_cap=cap)
    expected = _run(fingerprint_evaluate, source, env)
    _parse_source.cache_clear()
    cold = _run(evaluate, source, env)
    warm = _run(evaluate, source, env)
    assert cold == warm == expected


# A top-level `loop` state sizes to 365 under the prover's estimate.
@pytest.mark.parametrize("source, fuel, cap, expected", [
    # Fuel runs out on the step right after reaching `loop`.
    ("loop", 1, 65536, (EvalKind.FUEL_EXHAUSTED, None, None, 1)),
    ("if loop == 1 then 1 else 2", 2, 65536,
     (EvalKind.FUEL_EXHAUSTED, None, None, 2)),
    # One more unit of fuel and the repeat is seen.
    ("loop", 2, 65536, (EvalKind.PROVEN_NONHALTING, None, (1, 2), 1)),
    ("if loop == 1 then 1 else 2", 3, 65536,
     (EvalKind.PROVEN_NONHALTING, None, (2, 3), 2)),
    # The memory cap is inclusive; one byte under it, `loop` spins out.
    ("loop", 40, 365, (EvalKind.PROVEN_NONHALTING, None, (1, 2), 1)),
    ("loop", 40, 364, (EvalKind.FUEL_EXHAUSTED, None, None, 40)),
    ("grow", 0, 65536, (EvalKind.FUEL_EXHAUSTED, None, None, 0)),
    ("grow", 1, 65536, (EvalKind.FUEL_EXHAUSTED, None, None, 1)),
    # A child caught at `loop` by its own budget reads as exhausted.
    ('match sim("loop", opp, 1) { halted(k) => k | exhausted => 2 }', 50,
     65536, (EvalKind.HALTED, 2, None, 5)),
    ('match sim("loop", opp, 2) { halted(k) => k | exhausted => 2 }', 50,
     65536, (EvalKind.HALTED, 2, None, 5)),
    # A `loop` state holding a quote sizes to 976.  The oracle sizes the
    # same node classes, so if a quote's text counted towards the size both
    # sides would move together: only these pinned numbers would change.
    ('if loop == 1 then sim("const 1", opp, 5) else 2', 40, 976,
     (EvalKind.PROVEN_NONHALTING, None, (2, 3), 2)),
    ('if loop == 1 then sim("const 1", opp, 5) else 2', 40, 975,
     (EvalKind.FUEL_EXHAUSTED, None, None, 40)),
])
def test_boundary_cases_match_the_oracle(source, fuel, cap, expected):
    program = parse_program(source)
    env = env_for(me=source, fuel=fuel, memory_cap=cap)
    for _ in range(2):  # the second time with every quote's text built
        new, old = _both(program, env)
        assert new == old == expected
        pretty(program.ast)
