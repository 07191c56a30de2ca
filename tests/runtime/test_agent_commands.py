"""A live agent's control commands, driven in-process."""

import json

import pytest

from repro.live.harness import QUIESCE_HORIZON, LiveHarness

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _replies(capsys):
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_quiesce_reads_the_harness_horizon(live_agent, tmp_path, capsys):
    agent = live_agent(LiveHarness(seed=0, workdir=str(tmp_path)), "P2")
    capsys.readouterr()
    agent._handle_command({"cmd": "quiesce", "horizon": QUIESCE_HORIZON})
    [reply] = _replies(capsys)
    assert reply["ok"] and reply["idle"]
    assert (reply["pending"], reply["unreceipted"]) == (0, 0)


def test_quiesce_without_a_horizon_is_refused(live_agent, tmp_path, capsys):
    """The horizon is the harness's to choose: the agent keeps no copy
    of its default, and a command without one fails in the reply."""
    agent = live_agent(LiveHarness(seed=0, workdir=str(tmp_path)), "P2")
    capsys.readouterr()
    agent._handle_command({"cmd": "quiesce"})
    [reply] = _replies(capsys)
    assert reply["ok"] is False
    assert "horizon" in reply["error"]
