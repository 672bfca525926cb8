"""Edge-computing simulation: central server, edge servers, clients,
network accounting, adversaries, and replication (Figure 2)."""

from repro.edge.adversary import (
    DropTuple,
    ResponseTamper,
    SpuriousTuple,
    StaleReplay,
    ValueTamper,
)
from repro.edge.central import (
    CentralServer,
    ClientConfig,
    ReplicationMode,
)
from repro.edge.client import Client
from repro.edge.deploy import Deployment, EdgeProcess, ShardedDeployment
from repro.edge.edge_server import EdgeConfig, EdgeResponse, EdgeServer
from repro.edge.fleet import Fleet
from repro.edge.fanout import (
    AdaptiveWindow,
    FanoutEngine,
    PeerState,
    SentRecord,
)
from repro.edge.network import Channel, Transfer
from repro.edge.router import (
    DeploymentQueryChannel,
    EdgeStats,
    MergedResponse,
    RoutingPolicy,
    ScatterGatherRouter,
    TransportQueryChannel,
    VerifiedResponse,
    VerifyingRouter,
    in_process_query_channel,
)
from repro.edge.sharding import ShardMap, ShardedCentral, stable_hash
from repro.edge.link import FaultInjector, InProcessTransport, Transport
from repro.edge.transport import (
    AckFrame,
    ConfigFrame,
    CursorAckFrame,
    CursorProbeFrame,
    DeltaFrame,
    HelloFrame,
    QueryRequestFrame,
    QueryResponseFrame,
    SnapshotFrame,
)

__all__ = [
    "AckFrame",
    "AdaptiveWindow",
    "CentralServer",
    "Channel",
    "Client",
    "ClientConfig",
    "ConfigFrame",
    "CursorAckFrame",
    "CursorProbeFrame",
    "DeltaFrame",
    "Deployment",
    "DeploymentQueryChannel",
    "DropTuple",
    "EdgeConfig",
    "EdgeProcess",
    "EdgeResponse",
    "EdgeServer",
    "EdgeStats",
    "FanoutEngine",
    "FaultInjector",
    "Fleet",
    "HelloFrame",
    "InProcessTransport",
    "MergedResponse",
    "PeerState",
    "QueryRequestFrame",
    "QueryResponseFrame",
    "ReplicationMode",
    "ResponseTamper",
    "RoutingPolicy",
    "ScatterGatherRouter",
    "SentRecord",
    "ShardMap",
    "ShardedCentral",
    "ShardedDeployment",
    "SnapshotFrame",
    "SpuriousTuple",
    "StaleReplay",
    "Transfer",
    "Transport",
    "TransportQueryChannel",
    "VerifiedResponse",
    "VerifyingRouter",
    "ValueTamper",
    "in_process_query_channel",
    "stable_hash",
]
