"""MDCD per-process knowledge state.

These are the variables the paper's algorithms (Appendix A) read and
write: the dirty bit, ``P1_act``'s pseudo dirty bit, the shadow's valid
message register ``VR``, and the peers' record of ``P1_act``'s message
sequence number.  The state is plain data and is included in every
checkpoint, so rollback restores the knowledge a process had at
checkpoint time.
"""

from __future__ import annotations

import dataclasses
from typing import Optional


@dataclasses.dataclass
class MdcdState:
    """Checkpointable MDCD knowledge of one process.

    Attributes
    ----------
    dirty_bit:
        1 while the process state is potentially contaminated.  For
        ``P1_act`` this is constant 1 during guarded operation ("the
        process is invariably regarded as potentially contaminated").
    pseudo_dirty_bit:
        ``P1_act`` only (modified protocol): reset to 0 on AT success or
        a matching "passed AT" notification, set to 1 immediately before
        the first internal send after a validation.  Drives pseudo
        checkpoints and substitutes for the dirty bit in the adapted TB
        protocol's ``write_disk`` (paper footnote 2).
    vr:
        The shadow's valid message register ``VR``: the highest
        ``P1_act`` sequence number known valid.  ``None`` before any
        validation.
    msg_sn_p1act:
        ``P2``'s record, under the original protocol, of the last
        ``P1_act`` message sequence number it received — the value
        ``P2`` piggybacks on its own "passed AT" broadcasts (the
        coordinated peers keep it per source, ``msg_sn_map``).
    guarded:
        Whether guarded operation is in effect.  After a shadow takeover
        (or a completed upgrade) MDCD "goes on leave": every dirty bit
        stays 0 and the adapted TB protocol degenerates to the original
        (paper Section 4.2, last paragraph).
    """

    dirty_bit: int = 0
    pseudo_dirty_bit: int = 0
    vr: Optional[int] = None
    msg_sn_p1act: int = 0
    guarded: bool = True
    #: Per-source contamination provenance (the coordinated schemes'
    #: peers): guarded active role id -> highest sequence number of
    #: that active influencing this process's state, directly or
    #: transitively.  ``None``/empty while clean.  On the paper's three
    #: processes it has one entry, ``P1_act``; the original protocol
    #: (uncoordinated baselines) leaves it unused.
    taint_map: Optional[dict] = None
    #: Per-source valid-bound registers (the coordinated schemes'
    #: peers): the highest certified sequence number per guarded active.
    vr_map: Optional[dict] = None
    #: Per-source record of the last sequence number received from each
    #: guarded active (the value peers merge into their own "passed AT"
    #: bound maps).
    msg_sn_map: Optional[dict] = None

    #: Snapshot section this state is encoded under (see
    #: :mod:`repro.snapshot.sections`).
    snapshot_section = "mdcd"
