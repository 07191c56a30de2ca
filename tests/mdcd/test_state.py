"""Unit tests for the MDCD knowledge state."""

from repro.mdcd.state import MdcdState


class TestDefaults:
    def test_clean_by_default(self):
        state = MdcdState()
        assert state.dirty_bit == 0
        assert state.pseudo_dirty_bit == 0
        assert state.vr is None
        assert state.msg_sn_p1act == 0
        assert state.guarded
