"""The ``topology-sweep`` table, pinned.

The sweep is a fault-free, fully seeded run per membership, so every
column but ``wall`` is a deterministic function of the code: the rows
below are what the command printed when the pin was taken, and a
refactor of the cost-profile harness must reproduce them exactly.
"""

from repro.__main__ import main

#: The KiB columns were re-pinned once when the unread scalar
#: ``msg_sn_p1act`` left every checkpoint's ``mdcd`` section: paper
#: 451.3 / 388.7 / 150.4 -> 445.2 / 383.0 / 148.4, 2x2+3
#: 1322.7 / 752.3 / 147.0 -> 1304.5 / 743.2 / 144.9; and once more when
#: the receive-dedup keys became an insertion-ordered dict (one pickled
#: ``None`` per key in every ``counters`` section): paper -> 457.4 /
#: 394.6 / 152.5, 2x2+3 -> 1324.9 / 759.6 / 147.2; and once more when a
#: capture took those keys as a tuple (no value per key): paper ->
#: 444.8 / 382.7 / 148.3, 2x2+3 -> 1303.4 / 742.6 / 144.8.
PINNED_ROWS = [
    ["paper", "3", "1x1+1", "0.165%", "444.8", "382.7", "0.196", "41",
     "148.3", "13.7"],
    ["2x2+3", "9", "2x2+3", "0.165%", "1303.4", "742.6", "0.182", "87",
     "144.8", "9.7"],
]


def test_topology_sweep_rows_are_pinned(capsys):
    assert main(["topology-sweep", "--horizon", "1000",
                 "--topologies", "paper,2x2+3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = [cell.strip() for cell in lines[1].split("|")]
    assert header[-1] == "wall"
    rows = [[cell.strip() for cell in line.split("|")][:-1]
            for line in lines[3:]]
    assert rows == PINNED_ROWS
