"""Unit tests for the Berkeley Ownership protocol transitions."""

import pytest

from repro.cache.coherence import BerkeleyOwnership, BusOp, CoherencyState


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
        state, bus_op = BerkeleyOwnership.on_write_hit(
            CoherencyState.OWNED_EXCLUSIVE
        )
        assert state is CoherencyState.OWNED_EXCLUSIVE
        assert bus_op is None

    def test_write_hit_unowned_acquires_ownership(self):
        state, bus_op = BerkeleyOwnership.on_write_hit(
            CoherencyState.UNOWNED
        )
        assert state is CoherencyState.OWNED_EXCLUSIVE
        assert bus_op is BusOp.WRITE_FOR_OWNERSHIP

    def test_write_hit_owned_shared_invalidates_others(self):
        state, bus_op = BerkeleyOwnership.on_write_hit(
            CoherencyState.OWNED_SHARED
        )
        assert state is CoherencyState.OWNED_EXCLUSIVE
        assert bus_op is BusOp.WRITE_FOR_OWNERSHIP

    def test_write_hit_invalid_is_an_error(self):
        with pytest.raises(ValueError):
            BerkeleyOwnership.on_write_hit(CoherencyState.INVALID)


class TestSnoopTransitions:
    def test_invalid_ignores_everything(self):
        for bus_op in BusOp:
            state, supplies, writes_back = BerkeleyOwnership.on_snoop(
                CoherencyState.INVALID, bus_op
            )
            assert state is CoherencyState.INVALID
            assert not supplies and not writes_back

    def test_exclusive_owner_downgrades_on_read_and_supplies(self):
        state, supplies, _ = BerkeleyOwnership.on_snoop(
            CoherencyState.OWNED_EXCLUSIVE, BusOp.READ
        )
        assert state is CoherencyState.OWNED_SHARED
        assert supplies

    def test_shared_owner_supplies_on_read(self):
        state, supplies, _ = BerkeleyOwnership.on_snoop(
            CoherencyState.OWNED_SHARED, BusOp.READ
        )
        assert state is CoherencyState.OWNED_SHARED
        assert supplies

    def test_unowned_copy_survives_read(self):
        state, supplies, _ = BerkeleyOwnership.on_snoop(
            CoherencyState.UNOWNED, BusOp.READ
        )
        assert state is CoherencyState.UNOWNED
        assert not supplies

    def test_read_owned_invalidates_and_owner_supplies(self):
        state, supplies, _ = BerkeleyOwnership.on_snoop(
            CoherencyState.OWNED_EXCLUSIVE, BusOp.READ_OWNED
        )
        assert state is CoherencyState.INVALID
        assert supplies

    def test_write_for_ownership_invalidates_unowned_copies(self):
        state, supplies, _ = BerkeleyOwnership.on_snoop(
            CoherencyState.UNOWNED, BusOp.WRITE_FOR_OWNERSHIP
        )
        assert state is CoherencyState.INVALID
        assert not supplies

    def test_write_back_leaves_state_alone(self):
        for state in CoherencyState:
            next_state, _, _ = BerkeleyOwnership.on_snoop(
                state, BusOp.WRITE_BACK
            )
            assert next_state is state
