"""The numpy stream properties the block-drawn fault tape relies on.

:func:`repro.faults.injector.first_below` hands out a block of
``rng.random(k)`` doubles as if they were scalar draws, and commits by
restoring a state snapshot and calling ``bit_generator.advance``.  That
is exact only while numpy keeps the properties pinned here; CI installs
numpy unpinned, so they are checked on every run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.injector import (
    FaultConfig,
    FaultInjector,
    block_drawable,
    first_below,
)


def _rng(seed: int = 5) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestStreamAssumptions:
    def test_default_rng_is_pcg64(self):
        assert type(_rng().bit_generator) is np.random.PCG64

    @pytest.mark.parametrize("n", [1, 2, 25, 257])
    def test_block_equals_scalar_draws(self, n):
        block, scalar = _rng(), _rng()
        assert block.random(n).tolist() == [scalar.random() for _ in range(n)]
        assert block.bit_generator.state == scalar.bit_generator.state

    def test_unit_uniform_is_the_next_double(self):
        a, b = _rng(), _rng()
        for _ in range(50):
            assert float(a.uniform(0.0, 1.0)) == b.random()

    @pytest.mark.parametrize("k", [0, 1, 24, 1000])
    def test_advance_equals_draws(self, k):
        advanced, drawn = _rng(), _rng()
        advanced.bit_generator.advance(k)
        drawn.random(k)
        assert advanced.bit_generator.state == drawn.bit_generator.state
        assert advanced.random() == drawn.random()

    def test_advance_clears_buffered_half_draw(self):
        # the reason first_below puts has_uint32 back
        rng = _rng()
        rng.integers(0, 10, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        rng.bit_generator.advance(3)
        assert rng.bit_generator.state["has_uint32"] == 0


def _scalar_first_below(rng: np.random.Generator, p: float, n: int):
    return next((k for k in range(n) if rng.random() < p), None)


class TestFirstBelow:
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize(
        "p,n", [(0.0, 25), (0.05, 25), (0.3, 25), (0.3, 2), (1.0, 3), (1.0, 1)]
    )
    def test_takes_the_scalar_draws(self, p, n, buffered):
        for seed in range(20):
            taped, scalar = _rng(seed), _rng(seed)
            if buffered:
                for rng in (taped, scalar):
                    rng.integers(0, 10, dtype=np.uint32)
            assert first_below(taped, p, n) == _scalar_first_below(
                scalar, p, n
            )
            assert taped.bit_generator.state == scalar.bit_generator.state
            # and the streams go on identically, half-draws included
            assert taped.integers(0, 2**31, dtype=np.uint32) == (
                scalar.integers(0, 2**31, dtype=np.uint32)
            )
            assert taped.random() == scalar.random()

    def test_hits_anywhere_in_the_block(self):
        # over these seeds the first hit lands early, late and last
        seen = set()
        for seed in range(60):
            taped, scalar = _rng(seed), _rng(seed)
            hit = first_below(taped, 0.15, 8)
            assert hit == _scalar_first_below(scalar, 0.15, 8)
            assert taped.bit_generator.state == scalar.bit_generator.state
            seen.add(hit)
        assert {0, 7, None} <= seen

    def test_block_drawable_only_for_pcg64_injectors(self):
        assert block_drawable(FaultInjector(FaultConfig()))
        mt = np.random.Generator(np.random.MT19937(1))
        assert not block_drawable(FaultInjector(FaultConfig(), rng=mt))
        assert not block_drawable(None)
