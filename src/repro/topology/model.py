"""The topology value object: who runs where, under which guard.

The paper fixes the membership at three processes — ``P1_act`` (the
low-confidence version of component 1), ``P1_sdw`` (its high-confidence
shadow) and ``P2`` (the second component).  :class:`Topology` lifts that
shape into data: **N guarded components** with **K shadows each**, plus
**U unguarded peers**, each member carrying a stable role id, a node id,
a confidence rank and the workload-stream / driver names the builders
derive everything else from.

``Topology.paper()`` reproduces the paper shape exactly — same role
ids, node ids, stream names and construction order as the historical
hard-coded builder — so the golden Fig. 6 trace digests key off its
:meth:`~Topology.fingerprint` and stay bit-for-bit identical.

Topologies are written as specs: ``"paper"``, ``"NxK"`` (N components,
K shadows each, N peers) or ``"NxK+U"`` (explicit peer count).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Callable, Dict, List, Optional, Tuple


class MemberKind(enum.Enum):
    """What a member is to the protocol."""

    ACTIVE = "active"    #: low-confidence version of a guarded component
    SHADOW = "shadow"    #: high-confidence replica shadowing an active
    PEER = "peer"        #: unguarded (high-confidence) service process


@dataclasses.dataclass(frozen=True)
class Member:
    """One process slot in a topology.

    ``rank`` orders shadows within a component for the takeover
    election (lower rank = higher confidence = preferred successor);
    actives carry rank 0 and peers their 1-based peer index.
    """

    role_id: str        #: stable process id ("P1_act", "C2_sdw1", ...)
    node_id: str        #: the node hosting this member
    kind: MemberKind
    component: int      #: 1-based guarded component, 0 for peers
    rank: int
    stream: str         #: workload action-stream name
    driver: str         #: workload driver (and acceptance-test) name

    def to_dict(self) -> Dict[str, object]:
        return {"role_id": self.role_id, "node_id": self.node_id,
                "kind": self.kind.value, "component": self.component,
                "rank": self.rank}


@dataclasses.dataclass(frozen=True)
class Topology:
    """An immutable membership description.

    Members are ordered: component 1's active, its shadows by rank,
    component 2's active, ... then the peers.  Builders iterate this
    order, which is what makes ``Topology.paper()`` construction
    byte-identical to the historical three-literal builder.
    """

    members: Tuple[Member, ...]
    spec: str

    def _memo(self, key: object, build: Callable[[], Tuple]) -> Tuple:
        """The lookup ``key``, built once and remembered beside the
        (frozen) fields: out of ``==``, :func:`dataclasses.replace` and
        (see :meth:`__getstate__`) pickles.  The builders and the
        process list ask the same questions of one membership thousands
        of times a campaign."""
        lookups = self.__dict__.get("_lookups")
        if lookups is None:
            lookups = {}
            object.__setattr__(self, "_lookups", lookups)
        found = lookups.get(key)
        if found is None:
            found = lookups[key] = build()
        return found

    def __getstate__(self) -> Dict[str, object]:
        return {name: value for name, value in self.__dict__.items()
                if name != "_lookups"}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls) -> "Topology":
        """The paper's shape: 1 component, 1 shadow, 1 unguarded peer,
        with the historical role/node/stream names."""
        members = (
            Member("P1_act", "N1a", MemberKind.ACTIVE, 1, 0,
                   "component1", "P1act"),
            Member("P1_sdw", "N1b", MemberKind.SHADOW, 1, 1,
                   "component1", "P1sdw"),
            Member("P2", "N2", MemberKind.PEER, 0, 1, "component2", "P2"),
        )
        return cls(members=members, spec="paper")

    @classmethod
    def general(cls, components: int, shadows: int,
                peers: Optional[int] = None) -> "Topology":
        """``components`` guarded components x ``shadows`` shadows each,
        plus ``peers`` unguarded peers (default: ``components``)."""
        if components < 1 or shadows < 1:
            raise ValueError("a topology needs >= 1 component and >= 1 shadow")
        n_peers = components if peers is None else peers
        if n_peers < 1:
            raise ValueError("a topology needs >= 1 unguarded peer "
                             "(the high-confidence service mesh)")
        members: List[Member] = []
        for c in range(1, components + 1):
            stream = f"component{c}"
            members.append(Member(f"C{c}_act", f"N{c}a", MemberKind.ACTIVE,
                                  c, 0, stream, f"C{c}_act"))
            for r in range(1, shadows + 1):
                members.append(Member(f"C{c}_sdw{r}", f"N{c}s{r}",
                                      MemberKind.SHADOW, c, r, stream,
                                      f"C{c}_sdw{r}"))
        for j in range(1, n_peers + 1):
            members.append(Member(f"P{j}", f"NP{j}", MemberKind.PEER,
                                  0, j, f"peer{j}", f"P{j}"))
        spec = (f"{components}x{shadows}" if n_peers == components
                else f"{components}x{shadows}+{n_peers}")
        return cls(members=tuple(members), spec=spec)

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def is_paper(self) -> bool:
        return self.spec == "paper"

    @property
    def n_components(self) -> int:
        return sum(1 for m in self.members if m.kind is MemberKind.ACTIVE)

    @property
    def n_shadows(self) -> int:
        """Shadows per component (uniform by construction)."""
        counts = [len(self.shadows_of(c))
                  for c in range(1, self.n_components + 1)]
        return counts[0] if counts else 0

    @property
    def n_peers(self) -> int:
        return len(self.peers())

    @property
    def size(self) -> int:
        return len(self.members)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def member(self, role_id: str) -> Member:
        for m in self.members:
            if m.role_id == role_id:
                return m
        raise KeyError(f"no member {role_id!r} in topology {self.spec!r}")

    def actives(self) -> Tuple[Member, ...]:
        return self._memo("actives", lambda: tuple(
            m for m in self.members if m.kind is MemberKind.ACTIVE))

    def peers(self) -> Tuple[Member, ...]:
        return tuple(m for m in self.members if m.kind is MemberKind.PEER)

    def shadows_of(self, component: int) -> Tuple[Member, ...]:
        """A component's shadows, by election preference (rank)."""
        return self._memo(("shadows_of", component), lambda: tuple(sorted(
            (m for m in self.members
             if m.kind is MemberKind.SHADOW and m.component == component),
            key=lambda m: (m.rank, m.role_id))))

    def active_of(self, component: int) -> Member:
        for m in self.members:
            if m.kind is MemberKind.ACTIVE and m.component == component:
                return m
        raise KeyError(f"no component {component} in topology {self.spec!r}")

    def component_members(self, component: int) -> Tuple[Member, ...]:
        return tuple(m for m in self.members if m.component == component
                     and m.kind is not MemberKind.PEER)

    def node_ids(self) -> Tuple[str, ...]:
        """All node ids, in member order (builders create nodes in this
        order; audit boundary schedules iterate it)."""
        return tuple(m.node_id for m in self.members)

    def role_ids(self) -> Tuple[str, ...]:
        return self._memo("role_ids", lambda: tuple(
            m.role_id for m in self.members))

    def members_on(self, node_id: str) -> Tuple[Member, ...]:
        return tuple(m for m in self.members if m.node_id == node_id)

    def exempt_role_ids(self) -> Tuple[str, ...]:
        """Role ids whose state is never a recovery basis (the
        low-confidence actives) — the consistency-line checkers exempt
        these as receivers."""
        return self._memo("exempt_role_ids", lambda: tuple(
            m.role_id for m in self.actives()))

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def canonical(self) -> Dict[str, object]:
        """Canonical JSON-able description (fingerprint input)."""
        return {"spec": self.spec,
                "members": [m.to_dict() for m in self.members]}

    def fingerprint(self) -> str:
        """Stable 16-hex-digit identity for cache and golden keys."""
        blob = json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    def __str__(self) -> str:
        return self.spec


def parse_topology(spec: str) -> Topology:
    """Parse a topology spec: ``"paper"``, ``"NxK"`` or ``"NxK+U"``.

    >>> parse_topology("2x2").size
    8
    >>> parse_topology("2x2+3").n_peers
    3
    """
    text = spec.strip().lower()
    if text == "paper":
        return Topology.paper()
    peers: Optional[int] = None
    if "+" in text:
        text, _, peer_text = text.partition("+")
        try:
            peers = int(peer_text)
        except ValueError:
            raise ValueError(f"bad topology spec {spec!r}: peer count "
                             f"{peer_text!r} is not an integer")
    parts = text.split("x")
    if len(parts) != 2:
        raise ValueError(f"bad topology spec {spec!r}: expected "
                         "'paper', 'NxK' or 'NxK+U'")
    try:
        components, shadows = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"bad topology spec {spec!r}: N and K must be "
                         "integers")
    return Topology.general(components, shadows, peers)
