"""Reproducible random game generation."""

from __future__ import annotations

from fractions import Fraction

import pytest

from mpg import (
    GenParams,
    Model,
    Player,
    Rng,
    brute_force_solve,
    gen_random,
    solve_threshold,
)
from conftest import canonical


class TestRng:
    def test_published_reference_stream_seed_zero(self):
        rng = Rng(0)
        assert [rng.next_u64() for _ in range(4)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
            17909611376780542444,
        ]

    def test_published_reference_stream(self):
        rng = Rng(1234567)
        assert [rng.next_u64() for _ in range(4)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
        ]

    def test_bounded_draws(self):
        rng = Rng(99)
        for _ in range(1000):
            assert 0 <= rng.below(7) < 7
        for _ in range(1000):
            assert -3 <= rng.randint(-3, 3) <= 3

    def test_bad_bounds(self):
        rng = Rng(0)
        with pytest.raises(ValueError):
            rng.below(0)
        with pytest.raises(ValueError):
            rng.randint(2, 1)


class TestGenRandom:
    def test_deterministic(self):
        p = GenParams(n=12, out_degree=(1, 4), weight_bound=9, seed=321)
        assert canonical(gen_random(p)) == canonical(gen_random(p))

    def test_seed_changes_output(self):
        a = gen_random(GenParams(n=12, seed=1))
        b = gen_random(GenParams(n=12, seed=2))
        assert canonical(a) != canonical(b)

    @pytest.mark.parametrize("model", list(Model))
    def test_structure_respected(self, model):
        p = GenParams(n=30, out_degree=(2, 5), weight_bound=7, model=model, seed=5)
        g = gen_random(p)
        assert g.n == 30
        for v in range(g.n):
            degree = len(g.out[v])
            assert 2 <= degree <= 5 or (model is Model.CYCLE_HEAVY and 1 <= degree <= 5)
            assert degree >= 1  # sinkless by construction
        assert all(abs(w) <= 7 for w in g.eweight)

    def test_cycle_heavy_contains_long_cycle(self):
        g = gen_random(GenParams(n=20, out_degree=(1, 2), model=Model.CYCLE_HEAVY, seed=8))
        # follow the backbone: every vertex lies on one covering cycle
        assert all(len(g.out[v]) >= 1 for v in range(g.n))
        assert g.m >= g.n

    def test_min_fraction_extremes(self):
        all_min = gen_random(GenParams(n=25, min_fraction=Fraction(1), seed=3))
        assert all(o is Player.MIN for o in all_min.owners)
        all_max = gen_random(GenParams(n=25, min_fraction=Fraction(0), seed=3))
        assert all(o is Player.MAX for o in all_max.owners)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GenParams(n=0)
        with pytest.raises(ValueError):
            GenParams(n=3, out_degree=(0, 2))
        with pytest.raises(ValueError):
            GenParams(n=3, weight_bound=0)
        with pytest.raises(ValueError):
            GenParams(n=3, min_fraction=Fraction(3, 2))

    @pytest.mark.parametrize("model", list(Model))
    def test_generated_games_solve_correctly(self, model):
        for seed in range(40):
            g = gen_random(
                GenParams(n=2 + seed % 5, weight_bound=4, model=model, seed=seed)
            )
            assert solve_threshold(g).min_region == brute_force_solve(g).min_region
