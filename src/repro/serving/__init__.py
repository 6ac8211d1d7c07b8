"""Network serving layer: ship PCR record prefixes to remote readers.

The subsystem has six parts:

:mod:`repro.serving.protocol`
    The versioned, length-prefixed binary wire format (requests, responses,
    structured error frames).

:mod:`repro.serving.cache`
    ``ScanPrefixCache`` — the scan-prefix LRU cache that serves any scan
    group ≤ a cached group by slicing the cached prefix.

:mod:`repro.serving.server`
    ``PCRRecordServer`` — an asyncio TCP server over a shared
    :class:`~repro.core.reader.PCRReader` and one ``ScanPrefixCache``.

:mod:`repro.serving.client`
    ``PCRClient`` — a connection-pooled client with retry-on-reconnect —
    and the ``RecordClient`` protocol it shares with ``ClusterClient``.

:mod:`repro.serving.remote_source`
    ``RemoteFetcher`` — the :class:`~repro.core.source.RecordFetcher` over
    a wire client — and ``RemoteRecordSource``, the shared
    :class:`~repro.core.source.RecordSource` constructed over it: the
    ``DataLoader``-compatible source that streams minibatches from a server
    with a runtime-switchable scan group.

:mod:`repro.serving.cluster`
    The multi-node layer: ``ShardMap`` (consistent-hash routing),
    ``ClusterCoordinator`` (shard fleet supervision),
    ``ClusterClient`` (failover-aware routing client), and
    ``ShardedRemoteRecordSource`` (the clustered ``DataLoader`` source).

The package imports none of them: a process that only reads over the wire
loads the client side alone, not the server, the cluster or ``asyncio``.
Import the submodules (or the top-level ``repro`` lazy exports).
"""
