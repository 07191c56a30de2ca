"""The MDCD (message-driven confidence-driven) protocol family.

``base`` holds the engines' shared bookkeeping and the switch points of
the paper's modifications; ``recovery`` implements shadow takeover.
Both the original protocol of Section 2.1 (Fig. 1, the uncoordinated
baselines) and the coordination-ready algorithms of Section 3 /
Appendix A (Fig. 3) are :mod:`repro.topology.engines` on every
membership, with ``modified`` off and on.
"""

from .base import MdcdEngineBase
from .commissioning import commission_upgrade
from .recovery import TakeoverEngine
from .state import MdcdState

__all__ = [
    "MdcdEngineBase",
    "commission_upgrade",
    "MdcdState",
    "TakeoverEngine",
]
