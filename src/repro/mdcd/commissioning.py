"""Upgrade commissioning — the coordination's seamless disengagement.

Paper Section 4.2, last paragraph: "when this approach is used for
guarded software upgrading, after the successful completion of an
onboard software upgrade, all the software components will be considered
high-confidence components; accordingly, the MDCD protocol will go on
leave, and each process's dirty bit will have a constant value of zero.
This, in turn, leads the adapted TB algorithm ... to become equivalent
to its original version."

:func:`commission_upgrade` performs that transition: the (now trusted)
upgraded version keeps the active role, the escorting shadow is retired,
dirty bits drop to zero for good, and — with every establishment now
finding a clean process — the adapted TB protocol's behaviour collapses
to the original's (current-state contents, ``tau(0)`` blocking).  The
reverse is starting a new guarded phase, which is simply building a new
system; the paper's point is that *no protocol swap* is needed in either
direction.
"""

from __future__ import annotations

from ..errors import ProtocolError
from .recovery import TakeoverEngine, drop_recipient


def commission_upgrade(system) -> None:
    """Declare the guarded upgrade successful on a running system.

    The upgraded version (``P1_act``) is promoted to high confidence:
    its engine switches to unguarded operation (clean internal sends,
    externals without acceptance tests), the shadow is retired (its
    suppressed log is discarded — every entry merely mirrored validated
    or soon-validated active messages), and ``P2`` stops multicasting to
    the retired shadow.

    Raises :class:`~repro.errors.ProtocolError` if a takeover already
    happened (there is no upgrade left to commission) or if the system
    was already commissioned.
    """
    if system.sw_recovery.completed:
        raise ProtocolError(
            "cannot commission the upgrade: the shadow already took over")
    active, shadow, peer = system.active, system.shadow, system.peer
    if not active.mdcd.guarded:
        raise ProtocolError("upgrade already commissioned")

    # The upgraded version is trusted from here on: it behaves like a
    # post-takeover component-1 (clean sends, no ATs) — which is exactly
    # "high-confidence active" behaviour.
    active.software = TakeoverEngine(active, [peer.process_id])
    active.mdcd.guarded = False
    active.mdcd.dirty_bit = 0
    active.mdcd.pseudo_dirty_bit = 0

    # Declaring every component high-confidence retroactively validates
    # the not-yet-validated message history (and releases any deferred
    # acknowledgements that were waiting on a validation).  Dirty bits
    # drop first: ack release requires a clean receiver.
    peer.mdcd.dirty_bit = 0
    for proc in (active, peer):
        for journal in (proc.journal_sent, proc.journal_recv):
            for record in journal.records(validated=False):
                record.validated = True
        proc.flush_deferred_acks()

    # Retire the escort.
    shadow.msg_log.clear()
    shadow.depose()
    shadow.mdcd.guarded = False

    # P2 stops addressing the retired shadow; its dirty bit can only
    # stay clean from now on (all incoming messages are clean-flagged).
    drop_recipient(peer.software, shadow.process_id)
    peer.mdcd.guarded = False
    peer.mdcd.dirty_bit = 0

    system.trace.record(system.sim.now, "upgrade.commissioned", None,
                        active=str(active.process_id))
