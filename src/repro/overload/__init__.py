"""Overload protection: bounded mailboxes, admission control, brownout.

The fault-tolerance stack (chaos, partitions, durability) handles
servers that *die*; this package handles servers that are merely
*drowning*.  The data plane bounds per-actor mailboxes and sheds or
backpressures excess load with full accounting, and the control plane
degrades gracefully — browned-out LEMs report less, less often, and the
failure detector knows the difference between slow and dead.

See ``docs/fault-model.md`` ("Overload & brownout") for the design.
"""

from .config import MAILBOX_POLICIES, OverloadConfig
from .manager import DISPOSITIONS, DispositionLedger, OverloadManager

__all__ = ["OverloadConfig", "OverloadManager", "MAILBOX_POLICIES",
           "DISPOSITIONS", "DispositionLedger"]
