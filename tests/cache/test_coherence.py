"""Unit tests for the Berkeley Ownership protocol transitions."""

import pytest

from repro.cache.coherence import BerkeleyOwnership, CoherencyState


class TestStates:
    def test_owned_states(self):
        assert CoherencyState.OWNED_SHARED.is_owned
        assert CoherencyState.OWNED_EXCLUSIVE.is_owned
        assert not CoherencyState.UNOWNED.is_owned
        assert not CoherencyState.INVALID.is_owned

    def test_two_bit_encoding(self):
        assert all(0 <= int(state) < 4 for state in CoherencyState)


class TestProcessorTransitions:
    def test_write_hit_exclusive_stays_silent(self):
        assert BerkeleyOwnership.on_write_hit(
            CoherencyState.OWNED_EXCLUSIVE
        ) is CoherencyState.OWNED_EXCLUSIVE

    def test_write_hit_unowned_acquires_ownership(self):
        assert BerkeleyOwnership.on_write_hit(
            CoherencyState.UNOWNED
        ) is CoherencyState.OWNED_EXCLUSIVE

    def test_write_hit_owned_shared_is_an_error(self):
        # Only a second board's read shares an owned block.
        with pytest.raises(ValueError):
            BerkeleyOwnership.on_write_hit(CoherencyState.OWNED_SHARED)

    def test_write_hit_invalid_is_an_error(self):
        with pytest.raises(ValueError):
            BerkeleyOwnership.on_write_hit(CoherencyState.INVALID)
