import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import game_side_oracle as oracle
from conftest import exact_fictitious_play, game_tables, grid_maxmin, symmetric_tables
from opencomp import (
    GameTable, MixedStrategy, dice, exploitability,
    fictitious_play, pennies, rps,
)


def _seeded_symmetric(n: int, seed: int) -> GameTable:
    upper = np.triu(np.random.default_rng(seed).integers(-1, 2, (n, n)), 1)
    return GameTable(name=f"seeded{n}", entries=upper - upper.T, symmetric_flag=True)


class TestMixedStrategy:
    def test_uniform(self):
        mix = MixedStrategy.uniform(4)
        assert np.allclose(mix.weights, 0.25)

    def test_pure(self):
        mix = MixedStrategy.pure(3, 2)
        assert mix.weights.tolist() == [0.0, 1.0, 0.0]

    def test_pure_range_checked(self):
        with pytest.raises(IndexError):
            MixedStrategy.pure(3, 0)
        with pytest.raises(IndexError):
            MixedStrategy.pure(3, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            MixedStrategy(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            MixedStrategy(np.array([-0.5, 1.5]))
        with pytest.raises(ValueError):
            MixedStrategy(np.array([]))

    @pytest.mark.parametrize("n", [0, -1])
    def test_uniform_needs_a_strategy(self, n):
        with pytest.raises(ValueError):
            MixedStrategy.uniform(n)

    def test_weights_are_read_only(self):
        mix = MixedStrategy.uniform(2)
        with pytest.raises(ValueError):
            mix.weights[0] = 1.0


class TestPayoffAndExploitability:
    def test_uniform_rps_is_balanced(self):
        uniform = MixedStrategy.uniform(3)
        assert exploitability(rps(), uniform, uniform) == pytest.approx(0.0)

    def test_pure_rock_is_exploitable(self):
        rock = MixedStrategy.pure(3, 1)
        uniform = MixedStrategy.uniform(3)
        # paper gains 1 against rock, rock gains nothing against uniform
        assert exploitability(rps(), rock, uniform) == pytest.approx(1.0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            exploitability(rps(), MixedStrategy.uniform(3), MixedStrategy.uniform(4))

    @given(game_tables(max_side=5), st.data())
    @settings(max_examples=60)
    def test_exploitability_is_never_negative(self, game, data):
        raw1 = data.draw(
            st.lists(st.floats(0.01, 1.0), min_size=game.rows, max_size=game.rows)
        )
        raw2 = data.draw(
            st.lists(st.floats(0.01, 1.0), min_size=game.cols, max_size=game.cols)
        )
        p1 = MixedStrategy(np.array(raw1) / np.sum(raw1))
        p2 = MixedStrategy(np.array(raw2) / np.sum(raw2))
        assert exploitability(game, p1, p2) >= 0.0

    @staticmethod
    def _random_mixture(rng, n: int) -> MixedStrategy:
        weights = rng.random(n)
        return MixedStrategy(weights / weights.sum())

    @pytest.mark.parametrize("rows, cols", [(300, 700), (2000, 3), (3, 2000)])
    def test_matches_the_whole_table_products(self, rows, cols):
        # Taken a block of rows at a time, so the column sums add up in
        # another order: each is at most 1 in size, summed over at most
        # 2000 rows in float64.
        rng = np.random.default_rng(rows * cols)
        game = GameTable(name="wide", entries=rng.integers(-1, 2, (rows, cols)))
        p1, p2 = self._random_mixture(rng, rows), self._random_mixture(rng, cols)
        payoff = game.entries.astype(np.float64)
        whole = max(0.0, np.max(payoff @ p2.weights) - np.min(p1.weights @ payoff))
        assert exploitability(game, p1, p2) == pytest.approx(whole, rel=0, abs=1e-12)

    def test_holds_no_copy_of_the_table(self):
        n = 2000
        rng = np.random.default_rng(5)
        upper = np.triu(rng.integers(-1, 2, (n, n), dtype=np.int8), 1)
        game = GameTable(name="big", entries=upper - upper.T, symmetric_flag=True)
        p1, p2 = self._random_mixture(rng, n), self._random_mixture(rng, n)
        tracemalloc.start()
        try:
            exploitability(game, p1, p2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * n ** 2


class TestFictitiousPlay:
    def test_rps_approaches_uniform(self):
        result = fictitious_play(rps(), iterations=100_000, tol=1e-9)
        assert not result.converged
        assert result.exploitability <= 1e-2
        assert np.all(np.abs(result.p1.weights - 1 / 3) <= 0.01)
        assert np.all(np.abs(result.p2.weights - 1 / 3) <= 0.01)
        assert abs(result.value) <= 1e-2

    def test_dice_concentrates_on_the_top_face(self):
        result = fictitious_play(dice(), iterations=5000, tol=1e-9)
        assert result.p1.weights[5] >= 0.99
        assert result.p2.weights[5] >= 0.99

    def test_pennies_converges_to_the_coin_flip(self):
        result = fictitious_play(pennies(), iterations=50_000, tol=1e-2)
        assert result.converged
        assert result.iterations < 50_000
        assert abs(result.value) <= 1e-2
        assert np.all(np.abs(result.p1.weights - 0.5) <= 0.05)

    def test_deterministic(self):
        first = fictitious_play(rps(), iterations=2000, tol=1e-9)
        second = fictitious_play(rps(), iterations=2000, tol=1e-9)
        assert np.array_equal(first.p1.weights, second.p1.weights)
        assert first.exploitability == second.exploitability
        assert first.iterations == second.iterations

    def test_tracks_the_best_profile_not_the_last(self):
        # with a tolerance no run can reach, the reported exploitability
        # must still be the minimum over the whole trajectory
        short = fictitious_play(rps(), iterations=500, tol=0.0)
        long = fictitious_play(rps(), iterations=5000, tol=0.0)
        assert long.exploitability <= short.exploitability

    @pytest.mark.parametrize("game, iterations, tol", [
        # rows 1 and 2 of rps tie exactly at t=15, and later again
        (rps(), 500, 0.0),
        (_seeded_symmetric(30, 7), 400, 0.0),
        (dice(), 300, 1e-9),
        (pennies(), 5000, 1e-2),
    ], ids=["rps", "seeded30", "dice", "pennies"])
    def test_matches_exact_arithmetic(self, game, iterations, tol):
        p1, p2, value, gap, t, converged = exact_fictitious_play(game, iterations, tol)
        result = fictitious_play(game, iterations=iterations, tol=tol)
        assert np.allclose(result.p1.weights, [float(w) for w in p1], rtol=0, atol=1e-12)
        assert np.allclose(result.p2.weights, [float(w) for w in p2], rtol=0, atol=1e-12)
        assert abs(result.value - value) <= 1e-12
        assert abs(result.exploitability - gap) <= 1e-12
        assert (result.iterations, result.converged) == (t, converged)

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            fictitious_play(rps(), iterations=0)

    def test_the_largest_count_is_accepted(self):
        # dice settles on its top face, so no bisection runs long
        result = fictitious_play(dice(), iterations=2**63 - 2, tol=1e-300)
        assert (result.iterations, result.converged) == (2**63 - 2, False)

    @pytest.mark.parametrize("iterations", [2**63 - 1, 2**63, 10**20])
    def test_a_larger_count_is_rejected_up_front(self, iterations):
        with pytest.raises(ValueError, match="at most 9223372036854775806$"):
            fictitious_play(dice(), iterations=iterations, tol=1e-300)

    def test_nan_tolerance_rejected(self):
        # no gap is ever <= NaN, so the run would silently use every round
        with pytest.raises(ValueError, match="NaN"):
            fictitious_play(rps(), iterations=10, tol=float("nan"))

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("-inf")])
    def test_unreachable_tolerances_run_every_round(self, tol):
        result = fictitious_play(rps(), iterations=50, tol=tol)
        assert (result.iterations, result.converged) == (50, False)

    def test_value_matches_grid_search_on_small_games(self):
        for game in (rps(), pennies()):
            oracle = grid_maxmin(game, step=100)
            result = fictitious_play(game, iterations=20_000, tol=1e-9)
            assert abs(result.value - oracle) <= 1e-2 + 1e-9


def _seeded_table(rows: int, cols: int, seed: int) -> GameTable:
    entries = np.random.default_rng(seed).integers(-1, 2, (rows, cols))
    return GameTable(name=f"seeded{rows}x{cols}", entries=entries)


_INF = float("inf")
# Tables of every shape: small drawn ones, whose many zeros tie replies,
# and seeded ones up to 40 strategies a side.
_TABLES = st.one_of(
    game_tables(max_side=8),
    symmetric_tables(max_side=8),
    st.builds(_seeded_symmetric, st.integers(3, 40), st.integers(0, 2**32 - 1)),
    st.builds(
        _seeded_table, st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1)
    ),
)
# Edge tolerances: none reachable, every one, the smallest floats (where a
# closed form K / tol overflows or lands near 1e300), and ordinary ones.
_TOLS = st.one_of(
    st.sampled_from([0.0, -1.0, -_INF, _INF, 5e-324, 1e-300, 1e-2, 0.05]),
    st.floats(0.0, 1.0),
)


def _assert_same_play(new, old):
    assert np.array_equal(new.p1.weights, old.p1.weights)
    assert np.array_equal(new.p2.weights, old.p2.weights)
    assert new.value == old.value
    assert new.exploitability == old.exploitability
    assert new.iterations == old.iterations and type(new.iterations) is int
    assert new.converged == old.converged


class TestRunsMatchTheRoundLoop:
    """``fictitious_play`` takes a run of equal replies at a time; the round
    loop it replaced (``game_side_oracle.fictitious_play``) must give the
    same result, field for field."""

    @given(_TABLES, st.integers(1, 600), _TOLS)
    @settings(max_examples=150, deadline=None)
    @example(rps(), 1, 0.0)
    @example(rps(), 2000, 1e-300)
    @example(pennies(), 2000, 5e-324)
    @example(dice(), 300, _INF)
    def test_agrees_with_the_round_loop(self, game, iterations, tol):
        _assert_same_play(
            fictitious_play(game, iterations, tol),
            oracle.fictitious_play(game, iterations, tol),
        )

    @given(_TABLES, st.integers(1, 600), st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_tolerance_equal_to_a_gap_reached(self, game, iterations, data):
        # The best gap of the first rounds is a gap some round reaches
        # exactly; with it as tol, play must stop at that round.
        rounds = data.draw(st.integers(1, iterations))
        tol = oracle.fictitious_play(game, rounds, -_INF).exploitability
        new = fictitious_play(game, iterations, tol)
        _assert_same_play(new, oracle.fictitious_play(game, iterations, tol))
        assert new.converged and new.iterations <= rounds

    @pytest.mark.parametrize("game", [rps(), pennies(), dice()], ids=lambda g: g.name)
    def test_long_plays_on_the_bundled_games(self, game):
        # Runs grow longer the longer play goes on.
        _assert_same_play(
            fictitious_play(game, 10_000, 0.0), oracle.fictitious_play(game, 10_000, 0.0)
        )

    def test_a_settled_play_past_2_to_the_53_rounds(self):
        # From round 2 on both players play strategy 2 for good and the gap
        # is 2 / t.  So far out, the last few rounds' gaps round to one
        # float, and the best profile is the first of them, as the round
        # loop would keep it; its value, near -1, sums products near 2**112.
        game = GameTable(name="settled", entries=np.array([[-1, -1], [0, -1]]))
        n = 2**56
        first = n
        while 2 / (first - 1) == 2 / n:
            first -= 1
        assert first < n
        counts1, counts2 = np.array([1, first - 1]), np.array([2, first - 2])
        result = fictitious_play(game, n, -1.0)
        assert np.array_equal(result.p1.weights, MixedStrategy(counts1 / first).weights)
        assert np.array_equal(result.p2.weights, MixedStrategy(counts2 / first).weights)
        assert result.value == (-first + (first - 1) * (2 - first)) / first**2
        assert result.exploitability == 2 / first
        assert (result.iterations, result.converged) == (n, False)

    def test_non_integer_iterations(self):
        # Pinned as the round loop had it: a float count is a TypeError,
        # a bool is a count.
        for play in (fictitious_play, oracle.fictitious_play):
            with pytest.raises(TypeError):
                play(rps(), iterations=10.0)
        _assert_same_play(
            fictitious_play(rps(), iterations=True),
            oracle.fictitious_play(rps(), iterations=True),
        )
        assert fictitious_play(rps(), iterations=True).iterations == 1
