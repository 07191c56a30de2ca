"""Protocol combinations: the coordinated scheme (the paper's
contribution), the write-through baseline, and the naive combination."""

from .scheme import Scheme, System, SystemConfig, build_system
from .write_through import WriteThroughEngine

__all__ = [
    "Scheme",
    "System",
    "SystemConfig",
    "WriteThroughEngine",
    "build_system",
]
