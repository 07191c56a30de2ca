"""The ``topology-sweep`` table, pinned.

The sweep is a fault-free, fully seeded run per membership, so every
column but ``wall`` is a deterministic function of the code: the rows
below are what the command printed when the pin was taken, and a
refactor of the cost-profile harness must reproduce them exactly.
"""

from repro.__main__ import main

PINNED_ROWS = [
    ["paper", "3", "1x1+1", "0.165%", "451.3", "388.7", "0.196", "41",
     "150.4", "13.7"],
    ["2x2+3", "9", "2x2+3", "0.165%", "1322.7", "752.3", "0.182", "87",
     "147.0", "9.7"],
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
