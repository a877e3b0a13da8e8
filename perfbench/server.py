"""The benchmark's server process for ``service_mixed``.

Started by ``workloads.ServerProcess`` with the checkout's ``src`` on
``PYTHONPATH``.  It loads ``<state>/data.npy``, builds an ``EclipseService``
with its shipped defaults (2 shards, ``method="auto"``, fsync before every
update ack, a snapshot every 8 updates; WAL and snapshots under
``<state>/svc``) behind an ``EclipseNetServer`` on an ephemeral port, and
prints one JSON line ``{"port": ..., "t0_ns": ...}`` where ``t0_ns`` is the
``perf_counter_ns`` just before the service is constructed.  SIGTERM drains
it; it then writes ``<state>/result.json`` (peak resident set of itself and
each shard worker, service counters) and exits.

With ``--trace 1`` the layer wrappers are installed before the service
forks its shard workers, so the workers inherit them; every process writes
its spans to ``<state>/spans-*.json`` when it stops.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import signal
import time


def _peak_rss_mb(pid) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--state", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import numpy as np

    from repro.service.netserver import EclipseNetServer, NetServerConfig
    from repro.service.supervisor import EclipseService

    tracer = None
    if args.trace:
        from layers import WRAPS, trace_shard_workers
        from spans import Tracer

        tracer = Tracer(tier=1)
        tracer.install(WRAPS)
        trace_shard_workers(tracer, args.state)

    data = np.load(os.path.join(args.state, "data.npy"))
    t0_ns = time.perf_counter_ns()
    service = EclipseService(data, snapshot_dir=os.path.join(args.state, "svc"))
    try:
        server = EclipseNetServer(service, NetServerConfig(host="127.0.0.1", port=0))

        def started() -> None:
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, server.request_shutdown
            )
            print(json.dumps({"port": server.port, "t0_ns": t0_ns}), flush=True)

        asyncio.run(server.serve_until_shutdown(on_started=started))
        rss = {"server": _peak_rss_mb("self")}
        for child in multiprocessing.active_children():
            rss[child.name] = _peak_rss_mb(child.pid)
        report = {"peak_rss_mb": rss, "service_stats": service.stats.as_dict()}
    finally:
        service.close()
    if tracer is not None:
        tracer.flush(os.path.join(args.state, "spans-server.json"))
    with open(os.path.join(args.state, "result.json"), "w") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main()
