"""The MDCD (message-driven confidence-driven) protocol family.

``original`` implements the protocol of paper Section 2.1 (Fig. 1), the
uncoordinated baselines' engines; ``recovery`` implements shadow
takeover.  The coordination-ready algorithms of Section 3 / Appendix A
(Fig. 3) are :mod:`repro.topology.engines` on every membership.
"""

from .base import MdcdEngineBase
from .commissioning import commission_upgrade
from .original import OriginalActiveEngine, OriginalPeerEngine, OriginalShadowEngine
from .recovery import TakeoverEngine
from .state import MdcdState

__all__ = [
    "MdcdEngineBase",
    "commission_upgrade",
    "MdcdState",
    "OriginalActiveEngine",
    "OriginalPeerEngine",
    "OriginalShadowEngine",
    "TakeoverEngine",
]
