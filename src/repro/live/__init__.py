"""Wall-clock runtime: the second actor runtime behind the EMR's contract.

Everything in this package runs on a real asyncio event loop against a
monotonic millisecond clock — same directory, same profiling runtime,
same EPL policies as the simulator, different physics.  See
``docs/live-runtime.md`` for the contract and what is (not)
deterministic here.
"""

from .apps import (CHATROOM_LIVE_POLICY, METADATA_LIVE_POLICY, LiveChatApp,
                   LiveChatRoom, LiveChatUser, LiveFile, LiveFolder,
                   LiveMetadataApp, build_live_app)
from .clock import LiveClock
from .emr import LiveElasticityManager, LiveEmrConfig
from .frontdoor import FrontDoor
from .harness import live_loadtest, run_live_loadtest
from .loadgen import (LoadGenerator, LoadReport, flash_crowd_arrivals,
                      poisson_arrivals)
from .servers import LiveServer
from .system import LiveActor, LiveActorSystem

__all__ = [
    "LiveClock", "LiveServer", "LiveActor", "LiveActorSystem",
    "LiveElasticityManager", "LiveEmrConfig",
    "FrontDoor",
    "LoadGenerator", "LoadReport", "poisson_arrivals",
    "flash_crowd_arrivals", "run_live_loadtest", "live_loadtest",
    "LiveChatApp", "LiveChatRoom", "LiveChatUser",
    "LiveMetadataApp", "LiveFolder", "LiveFile", "build_live_app",
    "CHATROOM_LIVE_POLICY", "METADATA_LIVE_POLICY",
]
