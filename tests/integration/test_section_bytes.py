"""Every section a campaign schedule encodes, pinned byte for byte.

The snapshot pipeline builds its records (section payloads, journal
deltas, checkpoints) without the frozen-dataclass ``__init__`` and packs
journal and log diffs straight into the tuples it encodes.  Neither may
change what gets encoded: this pins, per section name, how many
payloads one audited ``cold_paper``-shaped schedule (seed 7, paper
membership, coordinated scheme; a software fault coincident with a
crash, so restores, deltas chained to a restored section and full
sections at the chain bound all occur) encodes, their total ``data``
length and the sha256 of that ``data`` concatenated in capture order.
Every checkpoint the schedule captures or rewrites, its payload and
each of its sections (full, delta and re-based) is checked against the
record its ``__init__`` would have built.

The ``counters`` section holds the receive-dedup keys in insertion
order, so its bytes, too, are the same under every hash seed and
string-hash algorithm (``test_counters_bytes_ignore_the_hash_seed``).

Run as a script (``PYTHONPATH=src:tests python
tests/integration/test_section_bytes.py``) to print the pins of the
current tree.
"""

import hashlib
import json
import os
import subprocess
import sys

from init_built import assert_init_built
from repro.checkpoint import Checkpoint

#: Section name -> [payloads, total ``data`` bytes, sha256 of their
#: ``data`` in capture order], computed at the commit before records
#: were built without their ``__init__``; ``counters`` re-pinned when
#: the dedup keys became an insertion-ordered dict (9 078 -> 9 566
#: bytes: one ``None`` value per key), and again when a capture took
#: them as a tuple (9 566 -> 9 025 bytes, -541: no value per key).
#: ``journals`` / ``msg_log`` re-pinned when the first capture after a
#: restore became a delta chained to the restored section instead of a
#: full one: ``msg_log`` 4 435 -> 3 676 bytes (-759), ``journals``
#: 10 614 -> 13 893 (+3 279).  The journals grow on this schedule
#: because the chains now run on past the restores (hardware at 75.8 s,
#: software at 134.1 s), so their ``max_chain`` full sections land at
#: 480 / 510 s, where the unpruned journals are about 3.1 KB, instead
#: of at 90 / 150 s, where they were 0.4-1.2 KB.
PINNED_SECTIONS = {
    "app": [45, 5955, "78d288e55f62d879597a343197b92396"
                      "30b70dd6c760064829bcc6fc72e56a62"],
    "counters": [45, 9025, "6033f3215c58dece80b7c48327d89641"
                          "cef76d191daad67aa70b554d7d90b55f"],
    "journals": [45, 13893, "57be95ecce90d4a30dac695760b42b37"
                            "b50a526b01300729082ba48eda527076"],
    "mdcd": [45, 6840, "1e63a46ec8f54e2931b1e699cb5966d7"
                       "a5b1abf66aed1efd2d92318288702b09"],
    "msg_log": [45, 3676, "9e833b1918894016d7f461a5db531c30"
                          "20b202a6df27fbd0fcc55bbf714cc916"],
}


def section_pins(check):
    """Run the pinned schedule with ``check`` applied to every
    checkpoint it captures or rewrites; its per-section pins."""
    from repro.audit import (AuditConfig, generate_schedules,
                             reference_timeline)
    from repro.audit.campaign import audit_schedule

    config = AuditConfig(scheme="coordinated", seed=7, schedules=72,
                         horizon=600.0, topology="paper")
    schedule = next(s for s in generate_schedules(
        config, timeline=reference_timeline(config))
        if s.label == "boundary:coincident:0")
    payloads = []
    originals = dict(vars(Checkpoint))
    capture = Checkpoint.capture.__func__
    rewritten = Checkpoint.rewritten

    def spy_capture(cls, *args, **kwargs):
        checkpoint = capture(cls, *args, **kwargs)
        check(checkpoint)
        payloads.extend(checkpoint.payload.sections)
        return checkpoint

    def spy_rewritten(self, **changes):
        checkpoint = rewritten(self, **changes)
        check(checkpoint)
        return checkpoint

    Checkpoint.capture = classmethod(spy_capture)
    Checkpoint.rewritten = spy_rewritten
    try:
        assert audit_schedule(config, schedule, fail_fast=False) == []
    finally:
        Checkpoint.capture = originals["capture"]
        Checkpoint.rewritten = originals["rewritten"]
    pins = {}
    for payload in payloads:
        entry = pins.setdefault(payload.section, [0, 0, hashlib.sha256()])
        entry[0] += 1
        entry[1] += len(payload.data)
        entry[2].update(payload.data)
    return {name: [count, size, digest.hexdigest()]
            for name, (count, size, digest) in sorted(pins.items())}


def check_init_built(checkpoint):
    assert_init_built(checkpoint)
    assert_init_built(checkpoint.payload)
    for section in checkpoint.payload.sections:
        assert_init_built(section)


def test_every_section_encodes_the_pinned_bytes():
    checked = []

    def check(checkpoint):
        check_init_built(checkpoint)
        checked.append(checkpoint)

    assert section_pins(check) == PINNED_SECTIONS
    # The init check covered the encoder's delta branch and its full
    # re-bases (a process's journals encoded whole again after its
    # first capture).
    journals = {id(s): s for c in checked for s in c.payload.sections
                if s.section == "journals"}.values()
    assert any(not s.full for s in journals)
    assert sum(s.full for s in journals) > len({c.process_id
                                                for c in checked})


#: Run in a child interpreter: the sha256 of every process's
#: ``counters`` section after one pinned schedule (coordinated,
#: campaign seed 7, ``random:14``) — dedup keys hold strings.
_COUNTERS_DIGEST = """
import hashlib
from repro.audit import AuditConfig, build_audit_system
from repro.audit.generator import generate_schedules
from repro.snapshot.sections import encode_full
config = AuditConfig(scheme="coordinated", seed=7, schedules=24)
schedule = next(s for s in generate_schedules(config)
                if s.label == "random:14")
system = build_audit_system(config, schedule)
system.run()
digest = hashlib.sha256()
for process in system.process_list():
    [counters] = [s for s in encode_full(process.make_snapshot()).sections
                  if s.section == "counters"]
    assert process.dedup.seen and len(counters.data) > 0
    digest.update(counters.data)
print(digest.hexdigest())
"""


def test_counters_bytes_ignore_the_hash_seed():
    """Two interpreters with different string-hash seeds encode the
    same ``counters`` bytes."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.path.abspath(src))
        digests.add(subprocess.run(
            [sys.executable, "-c", _COUNTERS_DIGEST], env=env, check=True,
            timeout=120, capture_output=True, text=True).stdout)
    assert len(digests) == 1


if __name__ == "__main__":
    print(json.dumps(section_pins(check_init_built)))
