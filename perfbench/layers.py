"""The layers the traced run measures, and the per-layer metrics.

:data:`WRAPS` names, for each layer of the repository, the public functions
whose calls become spans, each patched where its caller looks it up.  The
same list is installed in the benchmark process (client side), the server
process and, by inheritance through ``fork``, the shard workers.

:func:`layer_metrics` turns the spans of one traced timed window into the
``per_layer`` metrics of ``BENCHMARK.json``.  A metric whose layer does not
run in a workload reads 0.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence

from spans import Span, Tracer, Wrap, partition

#: The layers, in the order reports list them.
LAYERS = (
    "net", "svc", "wal", "snapshot", "session", "plan",
    "skyline", "transform", "index", "advisor",
)

INDEX_METHODS = ("quadtree", "cutting")


def spec_key(spec) -> str:
    """Request key of one ratio specification (raw pairs or a RatioVector)."""
    if hasattr(spec, "lows"):
        spec = zip(spec.lows, spec.highs)
    return "q:" + ",".join(f"{float(lo)!r}/{float(hi)!r}" for lo, hi in spec)


def update_key(client_key) -> str:
    """Request key of one client update batch ``(client_id, client_seq)``."""
    return f"u:{client_key[0]}:{int(client_key[1])}"


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs.get(name)


# --- request keys the server and shards derive from their arguments -------
def _service_query_keys(args, kwargs):
    return [spec_key(s) for s in _arg(args, kwargs, 1, "ratio_specs")]


def _service_update_keys(args, kwargs):
    client_key = _arg(args, kwargs, 3, "client_key")
    return [update_key(client_key)] if client_key is not None else []


def _merge_keys(args, kwargs):
    return [spec_key(_arg(args, kwargs, 1, "ratios"))]


# --- span attributes -------------------------------------------------------
def _index_builds(args, kwargs):
    return args[0].stats.index_builds


def _session_call_attrs(args, kwargs, result, builds_before):
    session = args[0]
    plan = session.last_plan
    attrs = {
        "specs": len(result) if isinstance(result, list) else 1,
        "index_bytes": session.index_cache_nbytes(),
    }
    if plan is not None:
        estimate = plan.estimate_for(plan.method)
        built = session.stats.index_builds > builds_before
        attrs["method"] = plan.method
        attrs["est_ops"] = (
            estimate.per_query * max(1, plan.num_queries)
            + (estimate.build if built else 0.0)
        )
    return attrs


def _update_report_attrs(args, kwargs, report, token):
    return {
        "index_updates": report.index_updates,
        "index_invalidations": report.index_invalidations,
    }


def _wal_size(args, kwargs):
    path = args[0].path
    return os.path.getsize(path) if os.path.exists(path) else 0


def _wal_attrs(args, kwargs, result, size_before):
    return {"bytes": os.path.getsize(args[0].path) - size_before}


def _count_attrs(args, kwargs, result, token):
    return {"queries": len(result)}


def _tree_attrs(args, kwargs, result, token):
    return {
        "queries": len(result),
        "candidates": sum(len(c) for c in result),
        "pairs": args[0].num_pairs,
    }


def _rows_attrs(args, kwargs, result, token):
    return {"rows": int(result.shape[0])}


def _gemm_attrs(args, kwargs, result, token):
    return {"rows": int(args[0].shape[0]), "cols": int(args[1].shape[1])}


def _bytes_result(args, kwargs, result, token):
    return {"bytes": int(result)}


def _encoded_bytes(args, kwargs, result, token):
    return {"bytes": len(result)}


def _fed_bytes(args, kwargs, result, token):
    return {"bytes": len(args[1])}


_SESSION = "repro.core.session:"
_ADVISOR = "repro.perf.advisor:"
_INDEX = "repro.index.eclipse_index:EclipseIndex."

WRAPS: List[Wrap] = [
    # net: the client round trip and the frames it encodes and reads.
    Wrap("repro.service.netclient:EclipseClient.query_batch", "net.client_query"),
    Wrap("repro.service.netclient:EclipseClient.apply_updates", "net.client_update"),
    Wrap("repro.service.framing:encode_frame", "net.encode", attrs=_encoded_bytes),
    Wrap("repro.service.framing:FrameDecoder.feed", "net.feed", attrs=_fed_bytes),
    # svc: admission, shard fan-out and IPC, exact merge.  The merge's own
    # transform and skyline calls are part of the merge (opaque).
    Wrap("repro.service.supervisor:EclipseService.query_batch", "svc.query",
         keys=_service_query_keys),
    Wrap("repro.service.supervisor:EclipseService.apply_updates", "svc.update",
         keys=_service_update_keys),
    Wrap("repro.service.supervisor:eclipse_transform_indices", "svc.merge",
         keys=_merge_keys, opaque=True),
    # wal / snapshot
    Wrap("repro.service.wal:WriteAheadLog.append", "wal.append",
         before=_wal_size, attrs=_wal_attrs),
    Wrap(_SESSION + "DatasetSession.save_snapshot", "snapshot.save",
         attrs=_bytes_result),
    # session
    Wrap(_SESSION + "DatasetSession.run", "session.run",
         before=_index_builds, attrs=_session_call_attrs),
    Wrap(_SESSION + "DatasetSession.run_batch", "session.run_batch",
         before=_index_builds, attrs=_session_call_attrs),
    Wrap(_SESSION + "DatasetSession.apply_updates", "session.apply_updates",
         attrs=_update_report_attrs),
    Wrap(_SESSION + "DatasetSession.skyline", "session.skyline"),
    # plan (reached through the advisor's memoised what-if estimator)
    Wrap(_ADVISOR + "plan_query", "plan.plan_query"),
    Wrap(_ADVISOR + "plan_update", "plan.plan_update"),
    # skyline
    Wrap(_SESSION + "_skyline_indices", "skyline.skyline_indices"),
    Wrap("repro.core.transform:skyline_indices", "skyline.skyline_indices"),
    Wrap("repro.skyline.incremental:apply_updates", "skyline.incremental"),
    Wrap("repro.skyline.incremental:membership_delta", "skyline.membership_delta"),
    # transform, plus the corner GEMM as the session calls it
    Wrap(_SESSION + "eclipse_transform_indices", "transform.eclipse"),
    Wrap("repro.core.transform:map_to_corner_scores", "transform.map",
         attrs=_rows_attrs),
    Wrap(_SESSION + "parallel_matmul", "transform.gemm", attrs=_gemm_attrs),
    # index over the geometry flat trees
    Wrap(_INDEX + "build", "index.build"),
    Wrap(_INDEX + "query_indices_many", "index.query_many", attrs=_count_attrs),
    Wrap(_INDEX + "delete_points", "index.patch"),
    Wrap(_INDEX + "insert_points", "index.patch"),
    Wrap(_INDEX + "compact", "index.patch"),
    Wrap("repro.index.order_vector:OrderVectorIndex.initial_states",
         "index.order_vector", attrs=_count_attrs),
    Wrap("repro.index.intersection:IntersectionIndex.candidates_many",
         "index.tree", attrs=_tree_attrs),
    # advisor
    *[
        Wrap(_ADVISOR + f"IndexAdvisor.{name}", f"advisor.{name}")
        for name in ("should_build", "credit", "on_built", "on_failure",
                     "clear_failures", "enforce")
    ],
    Wrap(_ADVISOR + "WhatIfCostModel.plan_query", "advisor.whatif_query"),
    Wrap(_ADVISOR + "WhatIfCostModel.plan_update", "advisor.whatif_update"),
]


class _TracedConn:
    """Shard-side pipe end that tags each request with its request keys and
    writes the shard's spans out when the supervisor says stop."""

    def __init__(self, conn, tracer: Tracer, path: str):
        self._conn = conn
        self._tracer = tracer
        self._path = path

    def recv(self):
        message = self._conn.recv()
        kind = message[0]
        keys: List[str] = []
        if kind == "query":
            keys = [spec_key(spec) for spec in message[2]]
        elif kind == "update" and message[2].get("client") is not None:
            keys = [update_key(message[2]["client"])]
        elif kind == "stop":
            self._tracer.flush(self._path)
        self._tracer.set_keys(keys)
        return message

    def __getattr__(self, name):
        return getattr(self._conn, name)


def trace_shard_workers(tracer: Tracer, out_dir: str) -> None:
    """Make every shard worker the supervisor forks record its own spans."""
    import repro.service.supervisor as supervisor

    original = supervisor.worker_main

    def traced_worker_main(shard_id, conn, *args, **kwargs):
        tracer.reset(tier=2)
        path = os.path.join(out_dir, f"spans-shard{shard_id}-{os.getpid()}.json")
        try:
            return original(shard_id, _TracedConn(conn, tracer, path), *args, **kwargs)
        finally:
            tracer.flush(path)

    tracer.patch(supervisor, "worker_main", traced_worker_main)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER = [
    ("net.self_ms", "ms", "lower"),
    ("net.bytes_per_req", "bytes", "lower"),
    ("net.resends", "count", "lower"),
    ("svc.admission_wait_ms", "ms", "lower"),
    ("svc.ipc_ms", "ms", "lower"),
    ("svc.merge_ms_per_query", "ms", "lower"),
    ("svc.window_size", "queries", "higher"),
    ("svc.retries", "count", "lower"),
    ("wal.append_ms", "ms", "lower"),
    ("wal.bytes_per_user_byte", "ratio", "lower"),
    ("snapshot.ms", "ms", "lower"),
    ("snapshot.mb", "MiB", "lower"),
    ("session.run_batch_ms", "ms", "lower"),
    ("session.apply_updates_ms", "ms", "lower"),
    ("session.index_inplace_frac", "ratio", "higher"),
    ("plan.index_pick_frac", "ratio", "lower"),
    ("plan.ns_per_est_op.transform", "ns/op", "lower"),
    ("plan.ns_per_est_op.cutting", "ns/op", "lower"),
    ("skyline.raw_ms", "ms", "lower"),
    ("skyline.mapped_ms_per_query", "ms", "lower"),
    ("skyline.incremental_ms", "ms", "lower"),
    ("transform.map_ms_per_query", "ms", "lower"),
    ("transform.rows_per_query", "rows", "lower"),
    ("transform.gemm_ms", "ms", "lower"),
    ("index.build_s", "s", "lower"),
    ("index.order_vector_ms_per_query", "ms", "lower"),
    ("index.tree_ms_per_query", "ms", "lower"),
    ("index.correction_ms_per_query", "ms", "lower"),
    ("index.candidate_frac", "ratio", "lower"),
    ("index.mb", "MiB", "lower"),
    ("index.patch_ms", "ms", "lower"),
    ("advisor.ms_per_call", "ms", "lower"),
    *[(f"{layer}.self_frac", "ratio", "lower") for layer in LAYERS],
    ("trace.accounted_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "higher"),
]

_RAW_SKYLINE_PARENTS = ("session.skyline", "session.apply_updates")
_SESSION_CALLS = ("session.run", "session.run_batch")
_MS = 1e-6


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    spans: Iterable[Span],
    window: tuple,
    *,
    dims: int,
    untraced_qps: float,
    traced_qps: float,
    client_resends: int = 0,
    service_retries: int = 0,
    user_update_bytes: int = 0,
) -> Dict[str, float]:
    """Per-layer metrics of the traced timed ``window = (start_ns, end_ns)``.

    ``spans`` holds every span of the traced phase, set-up included: the
    set-up metrics (``index.build_s``, ``skyline.raw_ms``) come from it, every
    other metric from the spans that start inside the window.
    """
    spans = list(spans)
    start_ns, end_ns = window
    by_id = {(s.pid, s.id): s for s in spans}

    def parent(span: Span):
        return by_id.get((span.pid, span.parent))

    roots = [s for s in spans if s.name == "bench.request" and s.start >= start_ns]
    inside = [
        s for s in spans
        if not s.name.startswith("bench.") and start_ns <= s.start <= end_ns
    ]
    named: Dict[str, List[Span]] = defaultdict(list)
    for span in inside:
        named[span.name].append(span)
    by_key: Dict[str, List[Span]] = defaultdict(list)
    for span in inside:
        for key in span.keys:
            by_key[key].append(span)

    def linked(span: Span) -> List[Span]:
        seen, out = set(), []
        for key in span.keys:
            for other in by_key.get(key, ()):
                if other is not span and id(other) not in seen:
                    seen.add(id(other))
                    out.append(other)
        return out

    def total_ms(name: str) -> float:
        return sum(s.duration for s in named[name]) * _MS

    def mean_ms(name: str) -> float:
        return _mean([s.duration for s in named[name]]) * _MS

    def attr_sum(name: str, attr: str) -> float:
        return sum((s.attrs or {}).get(attr, 0) for s in named[name])

    out: Dict[str, float] = {}

    # --- time partition of every request across the layers ---------------
    self_ns: Dict[str, float] = defaultdict(float)
    request_ns = 0
    for root in roots:
        request_ns += root.duration
        for layer, ns in partition(root, linked(root)).items():
            self_ns[layer] += ns
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = _ratio(self_ns[layer], request_ns)
    out["trace.accounted_frac"] = 1.0 - _ratio(self_ns["bench"], request_ns)
    out["trace.overhead_frac"] = _ratio(traced_qps - untraced_qps, untraced_qps)
    specs = sum((root.attrs or {}).get("specs", 0) for root in roots)

    # --- net -----------------------------------------------------------------
    net_self, net_bytes = [], 0
    for root in roots:
        related = linked(root)
        client = [s for s in related if s.name.startswith("net.client_")]
        server = [s for s in related if s.name in ("svc.query", "svc.update")]
        if client and server:
            net_self.append(client[0].duration - server[0].duration)
        net_bytes += sum(
            (s.attrs or {}).get("bytes", 0) for s in related
            if s.tier == 0 and s.name in ("net.encode", "net.feed")
        )
    out["net.self_ms"] = _mean(net_self) * _MS
    out["net.bytes_per_req"] = _ratio(net_bytes, len(net_self))
    out["net.resends"] = float(client_resends)

    # --- svc -----------------------------------------------------------------
    waits, ipcs = [], []
    for call in named["svc.query"] + named["svc.update"]:
        related = linked(call)
        shard = [s for s in related if s.tier == 2 and s.start >= call.start]
        if not shard:
            continue
        wait = min(s.start for s in shard) - call.start
        waits.append(wait)
        if call.name == "svc.query":
            slowest = max(
                (s.duration for s in shard if s.name == "session.run_batch"),
                default=0,
            )
            merge = sum(s.duration for s in related if s.name == "svc.merge")
            ipcs.append(call.duration - wait - slowest - merge)
    out["svc.admission_wait_ms"] = _mean(waits) * _MS
    out["svc.ipc_ms"] = _mean(ipcs) * _MS
    out["svc.merge_ms_per_query"] = _ratio(total_ms("svc.merge"), specs)
    shard_batches = [s for s in named["session.run_batch"] if s.tier == 2]
    out["svc.window_size"] = _mean([s.attrs["specs"] for s in shard_batches])
    out["svc.retries"] = float(service_retries)

    # --- wal / snapshot -------------------------------------------------------
    out["wal.append_ms"] = mean_ms("wal.append")
    out["wal.bytes_per_user_byte"] = _ratio(
        attr_sum("wal.append", "bytes"), user_update_bytes
    )
    out["snapshot.ms"] = mean_ms("snapshot.save")
    out["snapshot.mb"] = _mean(
        [s.attrs["bytes"] for s in named["snapshot.save"]]
    ) / 2**20

    # --- session / plan -------------------------------------------------------
    out["session.run_batch_ms"] = mean_ms("session.run_batch")
    out["session.apply_updates_ms"] = mean_ms("session.apply_updates")
    inplace = attr_sum("session.apply_updates", "index_updates")
    out["session.index_inplace_frac"] = _ratio(
        inplace, inplace + attr_sum("session.apply_updates", "index_invalidations")
    )
    calls = [s for name in _SESSION_CALLS for s in named[name]]
    out["plan.index_pick_frac"] = _ratio(
        sum(1 for s in calls if s.attrs.get("method") in INDEX_METHODS), len(calls)
    )
    for method in ("transform", "cutting"):
        chosen = [s for s in calls if s.attrs.get("method") == method]
        out[f"plan.ns_per_est_op.{method}"] = _ratio(
            sum(s.duration for s in chosen),
            sum(s.attrs.get("est_ops", 0.0) for s in chosen),
        )

    # --- skyline ----------------------------------------------------------------
    def is_raw(span: Span) -> bool:
        up = parent(span)
        return up is not None and up.name in _RAW_SKYLINE_PARENTS

    raw = [s for s in spans if s.name == "skyline.skyline_indices" and is_raw(s)]
    mapped = [s for s in named["skyline.skyline_indices"] if not is_raw(s)]
    out["skyline.raw_ms"] = _mean([s.duration for s in raw]) * _MS
    out["skyline.mapped_ms_per_query"] = _ratio(
        sum(s.duration for s in mapped) * _MS, specs
    )
    out["skyline.incremental_ms"] = mean_ms("skyline.incremental")

    # --- transform ----------------------------------------------------------------
    corners = 2 ** (dims - 1)
    rows = attr_sum("transform.map", "rows") + sum(
        s.attrs["rows"] * s.attrs["cols"] / corners for s in named["transform.gemm"]
    )
    out["transform.map_ms_per_query"] = _ratio(total_ms("transform.map"), specs)
    out["transform.rows_per_query"] = _ratio(rows, specs)
    out["transform.gemm_ms"] = mean_ms("transform.gemm")

    # --- index ------------------------------------------------------------------
    builds = [s.duration for s in spans if s.name == "index.build"]
    out["index.build_s"] = _mean(builds) * 1e-9
    index_queries = attr_sum("index.query_many", "queries")
    children: Dict[tuple, int] = defaultdict(int)
    for span in named["index.order_vector"] + named["index.tree"]:
        children[(span.pid, span.parent)] += span.duration
    correction = sum(
        s.duration - children[(s.pid, s.id)] for s in named["index.query_many"]
    )
    out["index.order_vector_ms_per_query"] = _ratio(
        total_ms("index.order_vector"), index_queries
    )
    out["index.tree_ms_per_query"] = _ratio(total_ms("index.tree"), index_queries)
    out["index.correction_ms_per_query"] = _ratio(correction * _MS, index_queries)
    out["index.candidate_frac"] = _ratio(
        attr_sum("index.tree", "candidates"),
        sum(s.attrs["queries"] * s.attrs["pairs"] for s in named["index.tree"]),
    )
    out["index.mb"] = max(
        (s.attrs.get("index_bytes", 0) for s in calls), default=0
    ) / 2**20
    updates = named["session.apply_updates"]
    out["index.patch_ms"] = _ratio(total_ms("index.patch"), len(updates))

    # --- advisor ------------------------------------------------------------------
    advisor = [
        s for s in inside
        if s.layer == "advisor"
        and not (parent(s) is not None and parent(s).layer == "advisor")
    ]
    out["advisor.ms_per_call"] = _ratio(
        sum(s.duration for s in advisor) * _MS, len(calls) + len(updates)
    )
    return {name: float(out[name]) for name, _, _ in PER_LAYER}
