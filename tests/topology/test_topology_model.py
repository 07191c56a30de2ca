"""The Topology value object: paper shape, general shapes, parsing,
queries, and the canonical fingerprint."""

import pytest

from repro.topology.model import MemberKind, Topology, parse_topology

PAPER_FINGERPRINT = "3d195c3d79d3c1e0"


class TestPaperShape:
    def test_members_and_roles(self):
        topo = Topology.paper()
        assert topo.is_paper
        assert topo.role_ids() == ("P1_act", "P1_sdw", "P2")
        assert topo.node_ids() == ("N1a", "N1b", "N2")
        assert topo.n_components == 1
        assert topo.n_shadows == 1
        assert topo.n_peers == 1
        assert topo.size == 3

    def test_kinds_and_components(self):
        topo = Topology.paper()
        assert topo.member("P1_act").kind is MemberKind.ACTIVE
        assert topo.member("P1_sdw").kind is MemberKind.SHADOW
        assert topo.member("P2").kind is MemberKind.PEER
        assert topo.active_of(1).role_id == "P1_act"
        assert [s.role_id for s in topo.shadows_of(1)] == ["P1_sdw"]
        assert [p.role_id for p in topo.peers()] == ["P2"]

    def test_paper_fingerprint_pinned(self):
        # The golden Fig. 6 digests are keyed by this value
        # (tests/golden/fig6_traces.json); changing the default
        # membership must fail loudly.
        assert Topology.paper().fingerprint() == PAPER_FINGERPRINT

    def test_exempt_and_guarded(self):
        topo = Topology.paper()
        assert topo.exempt_role_ids() == ("P1_act",)
        assert topo.active_of(1).role_id == "P1_act"
        assert [s.role_id for s in topo.shadows_of(1)] == ["P1_sdw"]


class TestGeneralShapes:
    def test_member_naming(self):
        topo = Topology.general(components=2, shadows=2, peers=3)
        assert topo.active_of(1).role_id == "C1_act"
        assert topo.active_of(2).role_id == "C2_act"
        assert [s.role_id for s in topo.shadows_of(2)] == \
            ["C2_sdw1", "C2_sdw2"]
        assert [p.role_id for p in topo.peers()] == ["P1", "P2", "P3"]
        assert topo.size == 2 * 3 + 3

    def test_nodes_are_distinct(self):
        topo = Topology.general(components=3, shadows=2, peers=2)
        nodes = topo.node_ids()
        assert len(nodes) == len(set(nodes)) == topo.size

    def test_members_on(self):
        topo = Topology.general(components=1, shadows=2, peers=1)
        shadow = topo.shadows_of(1)[0]
        assert [m.role_id for m in topo.members_on(shadow.node_id)] == \
            [shadow.role_id]

    def test_shadow_ranks_ordered(self):
        topo = Topology.general(components=1, shadows=3, peers=1)
        ranks = [s.rank for s in topo.shadows_of(1)]
        assert ranks == sorted(ranks)

    def test_fingerprints_separate_shapes(self):
        seen = set()
        for spec in ("paper", "1x1+1", "1x2+1", "2x1+1", "2x2+3"):
            seen.add(parse_topology(spec).fingerprint())
        assert len(seen) == 5

    def test_fingerprint_deterministic(self):
        a = parse_topology("2x2+3").fingerprint()
        b = parse_topology("2x2+3").fingerprint()
        assert a == b == "6c688af71c01319e"


class TestParsing:
    def test_paper_spec(self):
        assert parse_topology("paper").is_paper

    def test_nxk_default_peers(self):
        topo = parse_topology("2x2")
        assert topo.n_components == 2
        assert topo.n_shadows == 2
        assert topo.n_peers == 2  # defaults to N

    def test_nxk_plus_u(self):
        topo = parse_topology("1x2+2")
        assert (topo.n_components, topo.n_shadows, topo.n_peers) == (1, 2, 2)
        assert topo.size == 5

    @pytest.mark.parametrize("bad", ["", "0x1", "1x0", "axb", "1x1+",
                                     "paperx", "2x2+0x", "2x2+0"])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_topology(bad)

    def test_unknown_member_raises(self):
        with pytest.raises(KeyError):
            Topology.paper().member("C9_act")
