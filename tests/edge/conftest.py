"""Shared helpers for the edge-fabric tests."""


def down_channel(server, edge):
    """The byte log of the central→edge replication link ``server``
    holds for ``edge`` (deltas and snapshots as they left)."""
    return server.fanout.peer(edge.name).transport.down_channel
