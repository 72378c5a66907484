import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_fictitious_play, game_tables, grid_maxmin
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
