"""The session/executor layer: one dataset, memoised artifacts, many queries.

A :class:`DatasetSession` owns one dataset together with every artifact that
can be amortised across queries — the raw-space skyline indices, built
:class:`~repro.index.eclipse_index.EclipseIndex` instances keyed by their
*full* parameter set, and (per batch) one stacked corner-score matrix.  It
executes :class:`~repro.core.plan.QueryPlan` decisions against those
artifacts and keeps :class:`SessionStats` counters so callers (and tests)
can verify how often each expensive artifact was actually built.

The layering is::

    plan (repro.core.plan)      pure cost arithmetic, no data
      ↓
    session (this module)       owns data + memoised artifacts, executes plans
      ↓
    kernels (repro.perf, repro.skyline.kernels, index build kernels)

Single queries (:meth:`DatasetSession.run`) and batches
(:meth:`DatasetSession.run_batch`) share one transform executor: a stacked
corner GEMM over a row set, one corner-space skyline per ratio
specification, and an exact tie filter that makes the answer independent of
the row set.  The row set is the memoised raw skyline — every eclipse point
is a raw skyline point when the upper ratio bounds are positive — or every
row.  Batches always use the skyline.  Lone one-shots map every row until
the skyline exists, and pay for it as they go: from the second one on, each
spends as long as its own full-row map took on a pausable skyline build
(see :meth:`DatasetSession.run`).  Batches share the rest too: one skyline,
one corner-score matrix for *all* ratio specifications, one index build,
instead of recomputing each per query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro._types import ArrayLike2D, IndexArray
from repro.core.baseline import eclipse_baseline_indices
from repro.core.dominance import as_dataset
from repro.core.plan import (
    INDEX_METHODS,
    QueryPlan,
    UpdatePlan,
    canonical_method,
)
# eclipse_transform_indices is not called here; perfbench/layers.py patches
# this module's binding of it (the "transform.eclipse" span), so the import
# stays until that wrap goes.
from repro.core.transform import (
    eclipse_transform_indices,
    positive_upper_bounds,
    tie_filter_mask,
)
from repro.core.weights import RatioVector, make_ratio_vector
from repro.errors import (
    AlgorithmNotSupportedError,
    DegenerateHyperplaneError,
    DimensionMismatchError,
    InvalidWeightRangeError,
)
from repro.index.eclipse_index import EclipseIndex
from repro.index.intersection import DEFAULT_MAX_RATIO
from repro.perf.advisor import IndexAdvisor, validate_index_budget
from repro.perf.executor import (
    kernel_context,
    parallel_matmul,
    resolve_backend,
    resolve_threads,
    validate_backend,
    validate_dtype,
    validate_threads,
)
from repro.skyline import incremental as _incremental
from repro.skyline.api import skyline_indices as _skyline_indices
from repro.skyline.kernels import BlockSFSBuild


@dataclass(frozen=True)
class EclipseResult:
    """Result of a single eclipse query.

    Attributes
    ----------
    indices:
        Row positions of the eclipse points in the queried dataset, sorted.
    points:
        The eclipse points themselves (rows of the dataset).
    method:
        The algorithm that produced the result (canonical name).
    ratios:
        The ratio vector actually used.
    """

    indices: IndexArray
    points: np.ndarray
    method: str
    ratios: RatioVector

    def __len__(self) -> int:
        return int(self.indices.size)

    def __iter__(self):
        return iter(self.points)

    def index_set(self) -> set:
        """The result indices as a plain Python set (handy in tests)."""
        return set(int(i) for i in self.indices)


@dataclass
class SessionStats:
    """Counters of the expensive artifacts a session has built.

    The batch acceptance contract rides on these: a
    :meth:`DatasetSession.run_batch` over any number of ratio specifications
    must increment ``skyline_builds``, ``corner_matrix_builds`` and
    ``index_builds`` at most once each.  ``corner_matrix_builds`` counts
    corner-score matrices mapped off the raw skyline; a map over every row
    (a one-shot before the skyline exists, or a zero upper bound) is not
    counted.

    The dynamic-core contract rides on the update counters:
    ``inserts_applied`` / ``deletes_applied`` count dataset rows,
    ``skyline_inplace_updates`` / ``index_inplace_updates`` count artifacts
    maintained incrementally, ``rebuilds_triggered`` counts artifacts the
    update cost model chose to invalidate instead, and
    ``artifact_invalidations`` counts every artifact dropped or left stale
    by an update batch (cost-model rebuilds, degenerate update failures,
    and artifacts that could not be diffed).

    The amortised-memory contract (PR 5) rides on three more:
    ``arena_grows`` counts buffer reallocations across every cached index's
    capacity-doubling arenas (flat per appended row when the doubling
    amortises), ``compactions`` counts in-place arena compactions taken
    instead of full index rebuilds, and ``index_delta_patches`` counts
    cached indexes patched with a membership diff after a from-scratch
    skyline recompute (indexes that previously would have been dropped).

    The executor telemetry (PR 7) rides on four more, filled in by
    :mod:`repro.perf.executor` whenever the session's kernels run under its
    context: ``parallel_chunks`` counts kernel chunks dispatched to worker
    threads (serial execution dispatches none), ``threads_used`` is the
    largest worker count any dispatch actually used, and
    ``float32_fastpath_hits`` / ``float32_exact_fallbacks`` split the rows
    screened under ``dtype="float32"`` into those decided by strict
    single-precision comparisons and those re-verified with the exact
    float64 kernel (float32 ties — the re-verification is what keeps the
    fast path byte-identical).

    The index-advisor contract (PR 8) rides on five more:
    ``index_builds_skipped`` counts index builds — auto-planned *and*
    pinned (PR 9) — the budgeted advisor declined (the query or batch
    fell back to the exact transformation),
    ``index_evictions`` counts cached indexes dropped to fit the byte
    budget, ``advisor_bytes_resident`` is the exact resident footprint of
    the index cache after the last budget enforcement (arena ``nbytes``
    rollups, headroom included, plus the nominal bytes of memoised
    degenerate-build failures), and ``cost_requests`` / ``cache_hits``
    count the what-if estimator's plan requests and how many were served
    from its memo.

    The process-backend telemetry (PR 9) rides on three more:
    ``process_dispatches`` counts kernel dispatches routed through the
    shared-memory process pool, ``process_chunks`` counts the kernel
    chunks those dispatches carried, and ``shm_peak_bytes`` is the
    largest shared-memory payload (inputs plus outputs) any single
    dispatch exported.  Dispatches that fell back inline — a tiny
    payload under the dispatch gate, a crashed worker, an unpicklable
    kernel — count nothing here; only true cross-process execution does.
    """

    skyline_builds: int = 0
    corner_matrix_builds: int = 0
    index_builds: int = 0
    queries: int = 0
    batches: int = 0
    update_batches: int = 0
    inserts_applied: int = 0
    deletes_applied: int = 0
    skyline_inplace_updates: int = 0
    index_inplace_updates: int = 0
    rebuilds_triggered: int = 0
    artifact_invalidations: int = 0
    arena_grows: int = 0
    compactions: int = 0
    index_delta_patches: int = 0
    parallel_chunks: int = 0
    threads_used: int = 1
    float32_fastpath_hits: int = 0
    float32_exact_fallbacks: int = 0
    index_builds_skipped: int = 0
    index_evictions: int = 0
    advisor_bytes_resident: int = 0
    cost_requests: int = 0
    cache_hits: int = 0
    process_dispatches: int = 0
    process_chunks: int = 0
    shm_peak_bytes: int = 0
    index_build_seconds: float = field(default=0.0, repr=False)

    def artifact_counts(self) -> Tuple[int, int, int]:
        """``(skyline_builds, corner_matrix_builds, index_builds)``."""
        return (self.skyline_builds, self.corner_matrix_builds, self.index_builds)

    def update_counts(self) -> Tuple[int, int, int, int, int]:
        """``(inserts, deletes, inplace_updates, rebuilds, invalidations)``.

        ``inplace_updates`` sums the skyline and index in-place counters —
        the headline number the ``--explain`` surfaces print.
        """
        return (
            self.inserts_applied,
            self.deletes_applied,
            self.skyline_inplace_updates + self.index_inplace_updates,
            self.rebuilds_triggered,
            self.artifact_invalidations,
        )


@dataclass(frozen=True)
class UpdateReport:
    """What one :meth:`DatasetSession.apply_updates` batch actually did.

    Attributes
    ----------
    generation:
        The session generation after the batch (monotonically increasing;
        the skyline is tagged with the generation it is valid for).
    num_inserted, num_deleted:
        Dataset rows added / removed by the batch.
    skyline_added, skyline_removed:
        Skyline membership churn (``-1`` each when no diff was computed —
        the skyline went stale with no cached index worth patching).
    skyline_plan, index_plans:
        The :class:`~repro.core.plan.UpdatePlan` decisions taken — ``None``
        when no skyline was cached, and one entry per live cached index.
    index_updates, index_invalidations:
        Cached indexes maintained in place / dropped (rebuilt on demand).
    index_compactions:
        Cached indexes whose arenas were compacted in place this batch
        (the ``"compact"`` strategy — a subset of ``index_updates``).
    index_delta_patches:
        Cached indexes patched with the membership diff of a from-scratch
        skyline recompute (the delta-driven path — also a subset of
        ``index_updates``).
    """

    generation: int
    num_inserted: int
    num_deleted: int
    skyline_added: int
    skyline_removed: int
    skyline_plan: Optional[UpdatePlan]
    index_plans: Tuple[UpdatePlan, ...]
    index_updates: int
    index_invalidations: int
    index_compactions: int = 0
    index_delta_patches: int = 0


#: Index-construction parameters that must be part of an index cache key —
#: reusing an index built with different values would silently answer
#: queries with the wrong structure.
_INDEX_PARAM_DEFAULTS = {
    "skyline_method": "auto",
    "max_ratio": DEFAULT_MAX_RATIO,
    "capacity": None,
    "seed": 0,
    "dense_threshold": None,
    "shrink_domain": False,
}


def index_cache_key(backend: str, params: Dict[str, object]) -> Tuple:
    """Normalised cache key of one index configuration.

    Fills in the :class:`~repro.index.eclipse_index.EclipseIndex` defaults so
    an omitted parameter and its explicit default map to the same key, and
    includes *every* build parameter (``capacity``, ``max_ratio``,
    ``dense_threshold``, ``seed``, ``skyline_method``) so changing any of
    them can never silently reuse a stale index.
    """
    unknown = set(params) - set(_INDEX_PARAM_DEFAULTS)
    if unknown:
        raise AlgorithmNotSupportedError(
            f"unknown index parameter(s) {sorted(unknown)}; expected a subset "
            f"of {sorted(_INDEX_PARAM_DEFAULTS)}"
        )
    merged = {**_INDEX_PARAM_DEFAULTS, **params}
    return (
        backend,
        merged["skyline_method"],
        float(merged["max_ratio"]),
        None if merged["capacity"] is None else int(merged["capacity"]),
        merged["seed"],
        None if merged["dense_threshold"] is None else int(merged["dense_threshold"]),
        bool(merged["shrink_domain"]),
    )


class DatasetSession:
    """One dataset plus its memoised query artifacts.

    Parameters
    ----------
    points:
        Dataset of shape ``(n, d)`` with minimisation semantics.
    ratios:
        Default ratio specification used when a query gives none; anything
        accepted by :func:`repro.core.weights.make_ratio_vector`.
    index_kwargs:
        Default :class:`~repro.index.eclipse_index.EclipseIndex` parameters
        for the index-based methods (e.g. ``capacity`` or ``max_ratio``).
    threads:
        Worker-thread count for the chunked kernels (dominance screens,
        corner GEMMs, pairwise-intersection builds, batched tree probes).
        ``None`` defers to the ``REPRO_KERNEL_THREADS`` environment
        variable (default 1 — the exact serial code path); answers are
        byte-identical at every thread count.
    backend:
        Where those kernel chunks run: ``"thread"`` (default — the shared
        thread pool), ``"process"`` (the shared-memory process pool, true
        multi-core execution past the GIL for kernels that publish a
        shared-memory description), or ``"serial"`` (force inline).
        ``None`` defers to the ``REPRO_KERNEL_BACKEND`` environment
        variable; answers are byte-identical on every backend.
    dtype:
        Kernel compute dtype: ``"float64"`` (default) or ``"float32"`` for
        the opt-in fast path whose near-tie rows are re-verified exactly —
        results stay byte-identical to the float64 path.
    index_budget_bytes:
        Resident byte budget for the session's index cache (exact arena
        ``nbytes`` rollups, headroom included).  ``None`` defers to the
        ``REPRO_INDEX_BUDGET_MB`` environment variable (unset = unbounded).
        Under a budget the :class:`~repro.perf.advisor.IndexAdvisor`
        decides which indexes to build, keep, delta-patch, or evict;
        answers stay byte-identical whatever it decides — an evicted index
        is rebuilt (or the planner falls back to the transformation) on
        next use.
    """

    #: Class-level knob defaults so sessions unpickled from snapshots taken
    #: before these attributes existed still resolve them.
    _threads: Optional[int] = None
    _dtype: Optional[str] = None
    _backend: Optional[str] = None
    _index_budget_bytes: Optional[int] = None
    _advisor: Optional[IndexAdvisor] = None
    _transform_answered: bool = False
    _skyline_build: Optional[BlockSFSBuild] = None

    def __init__(
        self,
        points: ArrayLike2D,
        ratios=None,
        index_kwargs: Optional[Dict[str, object]] = None,
        threads: Optional[int] = None,
        dtype: Optional[str] = None,
        backend: Optional[str] = None,
        index_budget_bytes: Optional[int] = None,
    ):
        self._data = as_dataset(points)
        self.configure_kernels(
            threads=threads,
            dtype=dtype,
            backend=backend,
            index_budget_bytes=index_budget_bytes,
        )
        if ratios is None:
            self._default_ratios = None
        elif self._data.shape[1]:
            # Validated even when the dataset has zero rows: an empty
            # dataset with a known column count still fixes d.
            self._default_ratios = make_ratio_vector(ratios, self._data.shape[1])
        elif isinstance(ratios, RatioVector):
            # Empty dataset with unknown dimensionality: the RatioVector
            # carries its own d, so it must not be silently discarded.
            self._default_ratios = ratios
        else:
            raise InvalidWeightRangeError(
                "cannot infer dimensionality for an empty dataset; "
                "pass a RatioVector explicitly"
            )
        self._index_kwargs = dict(index_kwargs or {})
        # Validate eagerly so typos fail at construction, not first use.
        index_cache_key("auto", self._index_kwargs)
        self._skyline_idx: Optional[np.ndarray] = None
        self._indexes: Dict[Tuple, EclipseIndex] = {}
        # Generation-counter invalidation (dynamic core): the session
        # generation advances on every update batch, and the skyline is
        # tagged with the generation it is valid for.  In-place maintenance
        # re-tags it; a rebuild decision simply leaves the tag stale, and
        # the accessor treats a stale skyline as absent (lazy invalidation
        # — no eager recompute between updates).  Indexes that are not
        # maintained in place are dropped *eagerly* instead: a stale index
        # would pin its O(u^2) pair arenas and the pre-update dataset.
        self._generation = 0
        self._skyline_generation = 0
        # Index configurations whose build failed on unsplittable duplicate
        # hyperplanes: degeneracy is a property of the dataset + parameters,
        # so the (expensive, doomed) build is never re-attempted.  Cleared
        # on updates — the dataset changed.
        self._degenerate_index_keys: Dict[Tuple, DegenerateHyperplaneError] = {}
        # Set by the first lone one-shot that maps every row; later ones
        # advance _skyline_build, the paused skyline build, until it is done.
        self._transform_answered = False
        self._skyline_build = None
        self.stats = SessionStats()
        self.last_plan: Optional[QueryPlan] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The queried dataset (a defensive copy is *not* made)."""
        return self._data

    @property
    def num_points(self) -> int:
        """Number of points in the dataset."""
        return int(self._data.shape[0])

    @property
    def dimensions(self) -> int:
        """Dimensionality of the dataset (preserved for empty datasets)."""
        return int(self._data.shape[1])

    @property
    def default_ratios(self) -> Optional[RatioVector]:
        """The ratio vector supplied at construction time, if any."""
        return self._default_ratios

    @property
    def generation(self) -> int:
        """Update-batch counter; artifacts are valid for one generation."""
        return self._generation

    @property
    def threads(self) -> Optional[int]:
        """The configured kernel thread count (``None`` = environment/serial)."""
        return self._threads

    @property
    def compute_dtype(self) -> Optional[str]:
        """The configured kernel compute dtype (``None`` = float64)."""
        return self._dtype

    @property
    def kernel_backend(self) -> Optional[str]:
        """The configured kernel backend (``None`` = environment/thread)."""
        return self._backend

    @property
    def index_budget_bytes(self) -> Optional[int]:
        """The configured index byte budget (``None`` = environment/unbounded)."""
        return self._index_budget_bytes

    @property
    def advisor(self) -> IndexAdvisor:
        """The session's index advisor (created lazily for old snapshots)."""
        advisor = self.__dict__.get("_advisor")
        if advisor is None:
            advisor = IndexAdvisor(budget_bytes=self._index_budget_bytes)
            self._advisor = advisor
        return advisor

    def configure_kernels(
        self,
        threads: Optional[int] = None,
        dtype: Optional[str] = None,
        backend: Optional[str] = None,
        index_budget_bytes: Optional[int] = None,
    ) -> None:
        """Set (or reset) the executor and advisor knobs, validating eagerly.

        Also used by the service worker after a snapshot load, so a
        restored session picks up the *service's* current configuration
        instead of whatever was pickled — the snapshot-era budget loses to
        the service config, matching the ``threads``/``dtype`` precedence.
        """
        self._threads = validate_threads(threads)
        self._dtype = validate_dtype(dtype)
        self._backend = validate_backend(backend)
        self._index_budget_bytes = validate_index_budget(index_budget_bytes)
        advisor = self.__dict__.get("_advisor")
        if advisor is not None:
            advisor.budget_bytes = self._index_budget_bytes

    def index_cache_nbytes(self) -> int:
        """Exact resident bytes of every cached index (headroom included)."""
        return int(sum(index.nbytes() for index in self._indexes.values()))

    def _kernel_scope(self):
        """Ambient executor context for one session operation.

        Installs the session's ``threads``/``dtype`` knobs and its stats
        object as the telemetry sink, so kernels reached through deep call
        chains (skyline API, index builds, tree probes) resolve them
        without any keyword threading.
        """
        return kernel_context(
            threads=self._threads,
            dtype=self._dtype,
            stats=self.stats,
            backend=self._backend,
        )

    # ------------------------------------------------------------------
    # Memoised artifacts
    # ------------------------------------------------------------------
    def _skyline_cached(self) -> bool:
        """Is the memoised skyline valid for the current generation?"""
        return (
            self._skyline_idx is not None
            and self._skyline_generation == self._generation
        )

    def skyline(self) -> IndexArray:
        """Raw-space skyline indices of the dataset (computed once).

        Every substrate returns identical indices, so one cached result
        serves all callers regardless of which substrate a plan names.
        Under updates the cached result is either maintained in place by
        :meth:`apply_updates` or left stale (generation mismatch), in which
        case this accessor recomputes it from scratch.
        """
        if not self._skyline_cached():
            with self._kernel_scope():
                if self._skyline_build is not None:
                    # Finish the build the one-shots paid for in part.
                    self._skyline_build.advance()
                    self._skyline_idx = self._skyline_build.indices()
                else:
                    self._skyline_idx = _skyline_indices(self._data, method="auto")
            self._skyline_build = None
            self._skyline_generation = self._generation
            self.stats.skyline_builds += 1
        return self._skyline_idx

    def index_for(self, backend: str = "quadtree", **overrides) -> EclipseIndex:
        """Return (building and caching if needed) the index for ``backend``.

        ``overrides`` replace the session's default ``index_kwargs`` for
        this lookup only.  The cache key covers the backend *and* every
        build parameter, so asking for a different ``capacity``,
        ``max_ratio`` or ``dense_threshold`` builds a fresh index instead of
        silently reusing a stale one.
        """
        canonical = canonical_method(backend)
        if canonical not in INDEX_METHODS:
            raise AlgorithmNotSupportedError(
                f"index_for() accepts only the index-based methods "
                f"{INDEX_METHODS}, got {backend!r}"
            )
        params = {**self._index_kwargs, **overrides}
        key = index_cache_key(canonical, params)
        cached_failure = self._degenerate_index_keys.get(key)
        if cached_failure is not None:
            raise cached_failure
        index = self._indexes.get(key)
        built_now = False
        if index is None:
            # The memoised skyline is computed with the planner's substrate;
            # an explicit skyline_method override must actually be honoured,
            # so in that case the build runs its own skyline computation
            # with the requested substrate (the indices are identical).
            override_substrate = params.get("skyline_method", "auto") != "auto"
            precomputed = None if override_substrate else self.skyline()
            start = time.perf_counter()
            try:
                with self._kernel_scope():
                    index = EclipseIndex(backend=canonical, **params).build(
                        self._data, skyline_idx=precomputed
                    )
            except DegenerateHyperplaneError as exc:
                self._degenerate_index_keys[key] = exc
                self.advisor.on_failure(key)
                self._enforce_index_budget()
                raise
            self.stats.index_build_seconds += time.perf_counter() - start
            self.stats.index_builds += 1
            self._indexes[key] = index
            built_now = True
        # Benefit bookkeeping: a build is worth its own construction cost
        # (keeping it resident saves the rebuild), an access is worth the
        # per-query saving over the best index-free method.  Both come from
        # the memoised what-if estimator, so the hot path stays cheap.
        estimate = self.advisor.cost_model.plan_query(
            self.num_points,
            max(2, self.dimensions),
            method=canonical,
            num_queries=1,
            num_skyline=(
                int(self._skyline_idx.size) if self._skyline_cached() else None
            ),
            threads=resolve_threads(self._threads),
            backend=resolve_backend(self._backend),
        ).estimate_for(canonical)
        if built_now:
            self.advisor.on_built(key, index.nbytes(), build_cost=estimate.build)
        else:
            self.advisor.credit(key, estimate.build, nbytes=index.nbytes())
        self._enforce_index_budget()
        return index

    def _enforce_index_budget(self) -> None:
        """Evict cached indexes (and memoised failures) to fit the budget.

        The advisor ranks residents by decayed benefit-per-byte over their
        exact ``nbytes`` rollups and names the evictions; this method
        applies them to the session's caches.  With no budget in force it
        still refreshes the resident-bytes telemetry.  A just-evicted index
        is rebuilt on next use (or the planner falls back to the
        transformation), so answers never depend on what happens here.
        """
        advisor = self.advisor
        sizes = {key: index.nbytes() for key, index in self._indexes.items()}
        for key in advisor.enforce(sizes):
            if key in self._indexes:
                del self._indexes[key]
                self.stats.index_evictions += 1
            elif key in self._degenerate_index_keys:
                del self._degenerate_index_keys[key]
        self.stats.advisor_bytes_resident = advisor.bytes_resident
        self.stats.index_builds_skipped = advisor.builds_skipped
        self.stats.cost_requests = advisor.cost_model.cost_requests
        self.stats.cache_hits = advisor.cost_model.cache_hits

    # ------------------------------------------------------------------
    # Dynamic updates
    # ------------------------------------------------------------------
    def apply_updates(self, inserts=None, deletes=None) -> UpdateReport:
        """Apply one batch of point inserts/deletes to the session dataset.

        Parameters
        ----------
        inserts:
            ``(b, d)`` array of points to append (or ``None``).
        deletes:
            Positions (in the *current* dataset) of rows to remove (or
            ``None``).  Deletes are applied first, then the inserts are
            appended, matching ``np.vstack([np.delete(data, deletes,
            axis=0), inserts])``.

        Every memoised artifact is either maintained **in place** — the
        skyline through the incremental kernels of
        :mod:`repro.skyline.incremental`, each cached
        :class:`~repro.index.eclipse_index.EclipseIndex` through its
        ``delete_points``/``insert_points`` arenas — or **invalidated**,
        per artifact, as decided by the
        :func:`~repro.core.plan.plan_update` cost arm.  The session
        generation counter advances either way.  Two escalation paths keep
        artifacts alive where PR 4 dropped them: when the skyline arm picks
        a rebuild *and* indexes are cached, the recompute happens eagerly
        and each index is patched with the old-vs-new **membership diff**
        (:func:`repro.skyline.incremental.membership_delta`) instead of
        being dropped; and when an index's dead-slot fraction trips
        :data:`~repro.core.plan.MAX_DEAD_FRACTION`, its arenas are
        **compacted in place** (:meth:`EclipseIndex.compact`) rather than
        rebuilt, when the cost arm finds that cheaper.  Invalidation, when
        it still happens, is lazy for the skyline (the tag goes stale; the
        next access recomputes) and eager for indexes (a stale index would
        pin its pair arenas and the pre-update dataset), so batched queries
        keep amortising whatever survived the update and rebuild the rest
        on demand.  A skyline build that lone one-shots left paused (see
        :meth:`run`) is finished first, so it is maintained in place too.

        An in-place index update that trips over unsplittable coincident
        duplicate hyperplanes (a
        :class:`~repro.errors.DegenerateHyperplaneError` from a subtree
        rebuild) drops that index instead of failing the batch; the next
        access re-attempts a full build, which memoises the degeneracy and
        lets auto-planned batches fall back to the transformation, exactly
        as for a degenerate initial build.
        """
        n_old = self.num_points
        delete_positions = _incremental.validate_deletes(n_old, deletes)
        if inserts is None:
            insert_rows = np.empty((0, self.dimensions), dtype=float)
        else:
            insert_rows = as_dataset(inserts)
            if (
                self.dimensions
                and insert_rows.shape[0]
                and insert_rows.shape[1] != self.dimensions
            ):
                raise DimensionMismatchError(
                    f"inserted points have d={insert_rows.shape[1]}, "
                    f"dataset has d={self.dimensions}"
                )
        if delete_positions.size == 0 and insert_rows.shape[0] == 0:
            # True no-op: artifacts stay valid, the generation stands still.
            return UpdateReport(
                generation=self._generation,
                num_inserted=0,
                num_deleted=0,
                skyline_added=0,
                skyline_removed=0,
                skyline_plan=None,
                index_plans=(),
                index_updates=0,
                index_invalidations=0,
            )

        if self._skyline_build is not None:
            self.skyline()
        self.stats.update_batches += 1
        next_generation = self._generation + 1
        num_inserts = int(insert_rows.shape[0])
        num_deletes = int(delete_positions.size)
        n_new = n_old - num_deletes + num_inserts
        dims = insert_rows.shape[1] if num_inserts else self.dimensions

        # --- skyline: maintain in place, recompute-and-diff, or go stale --
        skyline_plan: Optional[UpdatePlan] = None
        delta: Optional[_incremental.SkylineDelta] = None
        delta_from_recompute = False
        if self._skyline_cached():
            skyline_plan = self.advisor.cost_model.plan_update(
                n_new,
                max(2, dims),
                num_inserts,
                num_deletes,
                num_skyline=int(self._skyline_idx.size),
                artifact="skyline",
                threads=resolve_threads(self._threads),
                backend=resolve_backend(self._backend),
            )
            if skyline_plan.inplace:
                with self._kernel_scope():
                    new_data, delta = _incremental.apply_updates(
                        self._data, self._skyline_idx, insert_rows, delete_positions
                    )
            else:
                self.stats.rebuilds_triggered += 1
        if delta is None:
            new_data = _incremental.compose_updated_data(
                self._data, delete_positions, insert_rows
            )
            if self._indexes and self._skyline_cached():
                # Delta-driven index maintenance: the cost arm judged a
                # fresh skyline computation cheaper than the incremental
                # kernels, but the *membership churn* is usually still
                # small — so pay the recompute now (it was due lazily on
                # the next access anyway), diff old-vs-new membership, and
                # let each cached index be patched with the (small)
                # insert/delete sets below instead of dropping them all.
                old_is_sky = np.zeros(n_old, dtype=bool)
                old_is_sky[self._skyline_idx] = True
                with self._kernel_scope():
                    new_sky = _skyline_indices(new_data, method="auto")
                self.stats.skyline_builds += 1
                new_is_sky = np.zeros(new_data.shape[0], dtype=bool)
                new_is_sky[new_sky] = True
                delta = _incremental.membership_delta(
                    n_old, delete_positions, old_is_sky, new_is_sky
                )
                delta_from_recompute = True
            elif self._skyline_cached():
                # Stale tag, no index to patch: recompute lazily on access.
                self.stats.artifact_invalidations += 1

        # --- cached indexes: per-index update/compact/rebuild decision ----
        remap = _incremental.remap_after_delete(n_old, delete_positions)
        index_plans = []
        index_updates = 0
        index_invalidations = 0
        index_compactions = 0
        index_delta_patches = 0
        for key in list(self._indexes):
            if delta is None:
                # No skyline diff — the index cannot be maintained.  Drop
                # it now rather than lazily: a stale index would pin its
                # O(u^2) pair arenas and the pre-update dataset until the
                # same cache key happened to be queried again.
                del self._indexes[key]
                index_invalidations += 1
                self.stats.artifact_invalidations += 1
                continue
            index = self._indexes[key]
            alive = index.num_skyline_points
            dead = index.num_dead_slots
            removed = int(delta.removed_old.size)
            added = int(delta.added.size)
            dead_fraction = (dead + removed) / max(1, alive + dead + added)
            # The keep-vs-patch-vs-rebuild arm flows through the advisor's
            # memoised what-if estimator: a kept index is delta-patched (or
            # compacted) in place whenever the cost model prices that under
            # the rebuild it would otherwise pay on next access.
            index_plan = self.advisor.cost_model.plan_update(
                n_new,
                max(2, dims),
                added,
                removed,
                num_skyline=alive,
                artifact="index",
                index_backend=key[0],
                dead_fraction=dead_fraction,
                num_pairs=index.intersection_index.num_pairs,
                threads=resolve_threads(self._threads),
                backend=resolve_backend(self._backend),
            )
            index_plans.append(index_plan)
            if not index_plan.inplace:
                del self._indexes[key]
                self.stats.rebuilds_triggered += 1
                self.stats.artifact_invalidations += 1
                index_invalidations += 1
                continue
            grows_before = index.arena_grows
            try:
                with self._kernel_scope():
                    index.delete_points(remap, delta.removed_old)
                    if index_plan.compacts:
                        index.compact()
                    index.insert_points(new_data, delta.added)
            except DegenerateHyperplaneError:
                # The arrivals piled coincident duplicates into one cell.
                # Drop the index; the next access re-attempts a full build
                # (memoising the degeneracy if it is global).
                del self._indexes[key]
                self.stats.artifact_invalidations += 1
                index_invalidations += 1
                continue
            except BaseException:
                # Any other failure (memory pressure, interrupt) may leave
                # the index half-updated against a dataset the session has
                # not committed yet; drop it so nothing inconsistent can
                # ever answer a query, then surface the error.
                del self._indexes[key]
                self.stats.artifact_invalidations += 1
                raise
            self.stats.index_inplace_updates += 1
            self.stats.arena_grows += index.arena_grows - grows_before
            index_updates += 1
            if index_plan.compacts:
                self.stats.compactions += 1
                index_compactions += 1
            if delta_from_recompute:
                self.stats.index_delta_patches += 1
                index_delta_patches += 1

        # --- commit -------------------------------------------------------
        self._data = new_data
        self._generation = next_generation
        if delta is not None:
            self._skyline_idx = np.flatnonzero(delta.is_skyline).astype(np.intp)
            self._skyline_generation = next_generation
            if not delta_from_recompute:
                self.stats.skyline_inplace_updates += 1
        self._degenerate_index_keys.clear()
        self.advisor.clear_failures()
        self.stats.inserts_applied += num_inserts
        self.stats.deletes_applied += num_deletes
        # Patched arenas may have grown (or compacted); re-measure and evict
        # under the budget before the batch commits to the caller.
        self._enforce_index_budget()
        return UpdateReport(
            generation=self._generation,
            num_inserted=num_inserts,
            num_deleted=num_deletes,
            skyline_added=-1 if delta is None else int(delta.added.size),
            skyline_removed=-1 if delta is None else int(delta.removed_old.size),
            skyline_plan=skyline_plan,
            index_plans=tuple(index_plans),
            index_updates=index_updates,
            index_invalidations=index_invalidations,
            index_compactions=index_compactions,
            index_delta_patches=index_delta_patches,
        )

    # ------------------------------------------------------------------
    # Snapshots (warm restart without an index rebuild)
    # ------------------------------------------------------------------
    #: Version of the *session state* layout inside a snapshot payload.
    #: Bump whenever the pickled attribute set changes incompatibly; the
    #: loader rejects any other value so a stale snapshot can never be
    #: silently reinterpreted.
    SNAPSHOT_STATE_VERSION = 2

    def save_snapshot(self, path: str, extra: Optional[Dict[str, object]] = None) -> int:
        """Serialize the whole session — data, arenas, cached indexes — to disk.

        The snapshot captures everything a warm restart needs to answer
        queries without rebuilding anything: the dataset, the memoised
        skyline, every cached :class:`~repro.index.eclipse_index.EclipseIndex`
        (their arenas travel trimmed to the valid prefix), the memoised
        degenerate-build failures, and the generation counters.  ``extra``
        is an opaque caller dict stored alongside (the service layer keeps
        its shard global-id map and last applied sequence number there).

        The file is written atomically behind a magic/version/SHA-256
        header (:mod:`repro.service.snapshot`); returns the byte size.
        """
        from repro.service.snapshot import write_payload

        payload = {
            "kind": "repro-dataset-session",
            "state_version": self.SNAPSHOT_STATE_VERSION,
            "session": self,
            "extra": dict(extra or {}),
        }
        return write_payload(path, payload)

    @classmethod
    def load_snapshot(cls, path: str) -> Tuple["DatasetSession", Dict[str, object]]:
        """Restore a session (and the caller's ``extra`` dict) from a snapshot.

        Raises :class:`~repro.errors.SnapshotError` when the file is
        corrupt, truncated, version-mismatched, or does not actually hold a
        session — callers treat that as "no snapshot" and rebuild cold.
        """
        from repro.errors import SnapshotError
        from repro.service.snapshot import read_payload

        payload = read_payload(path)
        if (
            not isinstance(payload, dict)
            or payload.get("kind") != "repro-dataset-session"
        ):
            raise SnapshotError(
                f"snapshot {path!r} does not hold a DatasetSession payload"
            )
        if payload.get("state_version") != cls.SNAPSHOT_STATE_VERSION:
            raise SnapshotError(
                f"snapshot {path!r} holds session state version "
                f"{payload.get('state_version')!r}, this build reads "
                f"{cls.SNAPSHOT_STATE_VERSION}"
            )
        session = payload["session"]
        if not isinstance(session, cls):
            raise SnapshotError(
                f"snapshot {path!r} decoded to {type(session).__name__}, "
                f"not a {cls.__name__}"
            )
        return session, payload.get("extra", {})

    # ------------------------------------------------------------------
    # Planning and execution
    # ------------------------------------------------------------------
    def plan(
        self,
        method: str = "auto",
        num_queries: int = 1,
    ) -> QueryPlan:
        """Build a :class:`QueryPlan` for this dataset.

        When the skyline has already been computed its measured size feeds
        the cost model, which prices the index methods far more accurately
        than the independence estimate (anticorrelated data has skylines
        orders of magnitude larger).
        """
        num_skyline = (
            int(self._skyline_idx.size) if self._skyline_cached() else None
        )
        # Planning flows through the advisor's memoised what-if estimator:
        # plans are frozen, so repeated workload shapes (the common case on
        # a query stream) are served from the memo, and the estimator's
        # cost_requests/cache_hits counters stay honest.
        plan = self.advisor.cost_model.plan_query(
            self.num_points,
            max(2, self.dimensions),
            method=method,
            num_queries=num_queries,
            num_skyline=num_skyline,
            threads=resolve_threads(self._threads),
            backend=resolve_backend(self._backend),
        )
        self.stats.cost_requests = self.advisor.cost_model.cost_requests
        self.stats.cache_hits = self.advisor.cost_model.cache_hits
        self.last_plan = plan
        return plan

    def run(self, ratios=None, method: str = "auto") -> EclipseResult:
        """Run one eclipse query.

        ``"auto"`` resolves through the planner (one-shot → the corner-score
        transformation, which applies to every ratio range, zero upper
        bounds included).  The transformation runs on the executor
        :meth:`run_batch` uses.  Until the session has a raw skyline, a
        one-shot maps every row, so the first costs what the standalone
        algorithm costs.  Each later one then spends as long again on a
        skyline build that pauses between blocks, so no query pays for the
        whole build at once and the build costs about what the full-row
        maps before it cost.  Once the build is done, one-shots map only
        the skyline, which :meth:`apply_updates` maintains in place.  A
        spec with a zero upper bound always maps every row.  The answer is
        byte-identical on every path, and to :meth:`run_batch`.
        """
        ratio_vector = self._resolve_ratios(ratios)
        canonical = canonical_method(method)
        if self.num_points == 0:
            return self._empty_result(canonical, ratio_vector)
        if canonical == "auto":
            canonical = self.plan(method="auto", num_queries=1).method
        return self._execute_single(canonical, ratio_vector)

    def run_indices(self, ratios=None, method: str = "auto") -> IndexArray:
        """Convenience wrapper returning only the result indices."""
        return self.run(ratios=ratios, method=method).indices

    def run_batch(
        self,
        ratio_specs: Iterable,
        method: str = "auto",
    ) -> List[EclipseResult]:
        """Answer many ratio-range queries off one session, sharing the work.

        One plan covers the whole batch; the shared artifacts — the raw
        skyline, the stacked corner-score matrix, the built index — are each
        computed at most once (visible in :attr:`stats`):

        * **index methods** — one index build amortised over all queries;
        * **transform** — eclipse points are always raw-space skyline
          points (every corner weight vector is non-negative with at least
          one strictly positive entry), so the batch computes the skyline
          once, maps *only the skyline points* through the corner vectors of
          *all* specifications in a single stacked GEMM, and runs one small
          mapped-space skyline per specification;
        * **baseline** — executed per query (its pairwise structure shares
          nothing), kept for explicit requests.

        Results are positionally parallel to ``ratio_specs`` and
        byte-identical to independent :meth:`run` calls with the same
        method.  Float64 corner scores cannot see sub-ulp coordinate
        differences, so the transform executor ends with an exact tie filter
        (:func:`~repro.core.transform.tie_filter_mask`) that drops
        raw-dominated candidates whose corner scores tie their dominator's;
        the index methods' raw-space prefilter drops the same points.  A
        specification with a zero upper bound disables the prefilter for
        the whole batch, because a zero corner weight breaks the "skyline
        point" guarantee.
        """
        specs = [self._resolve_ratios(spec) for spec in ratio_specs]
        if not specs:
            return []
        self.stats.batches += 1
        if self.num_points == 0:
            return [self._empty_result(canonical_method(method), rv) for rv in specs]

        # The skyline feeds both the index build and the transform batch —
        # and its measured size makes the plan's index-vs-transform pricing
        # trustworthy — so resolve it before planning.  A pinned baseline
        # batch is the one case that never touches it (its pairwise
        # structure shares nothing), so don't pay for it there.
        if canonical_method(method) != "baseline":
            self.skyline()
        plan = self.plan(method=method, num_queries=len(specs))
        chosen = plan.method

        if chosen in INDEX_METHODS:
            backend = plan.index_backend or chosen
            key = index_cache_key(canonical_method(backend), self._index_kwargs)
            if key not in self._indexes and not self.advisor.should_build(
                plan, pinned=canonical_method(method) != "auto"
            ):
                # Budgeted admission declined the build (projected benefit
                # per byte too thin, or the bytes cannot be made available
                # without displacing better residents).  This gate covers
                # *pinned* index methods too, not just auto: a pinned
                # ``method="cutting"`` names a preference, not a licence to
                # blow the byte budget, and the exact transformation
                # computes the same answers without the build.  The plan is
                # re-recorded so last_plan reflects what actually ran.
                self.stats.index_builds_skipped = self.advisor.builds_skipped
                self.plan(method="transform", num_queries=len(specs))
                return self._run_transform(specs)
            # One batched probe call for the whole batch: the index shares
            # one order-vector GEMM and one intersection-tree traversal
            # across all specifications (see EclipseIndex.query_indices_many).
            try:
                index = self.index_for(backend)
            except DegenerateHyperplaneError:
                if canonical_method(method) != "auto":
                    raise
                # The planner chose an index, but the dataset's intersection
                # hyperplanes are unsplittable coincident duplicates (e.g.
                # collinear points).  Auto mode falls back to the exact
                # transformation instead of surfacing the build error; the
                # failure is memoised per index configuration, and the plan
                # is re-recorded so last_plan reflects what actually ran.
                self.plan(method="transform", num_queries=len(specs))
                return self._run_transform(specs)
            with self._kernel_scope():
                batch_indices = index.query_indices_many(specs)
            results = []
            for ratio_vector, indices in zip(specs, batch_indices):
                indices = np.sort(np.asarray(indices, dtype=np.intp))
                self.stats.queries += 1
                results.append(self._wrap(indices, chosen, ratio_vector))
            # Realised-savings credit for the whole batch: what the best
            # index-free method would have cost minus what the index path
            # paid per query, recency/frequency-weighted in the ledger.
            best_alternative = plan.best_alternative_cost(len(specs))
            if best_alternative is not None:
                saving = best_alternative - plan.estimate_for(
                    chosen
                ).per_query * len(specs)
                self.advisor.credit(key, saving, nbytes=index.nbytes())
            self._enforce_index_budget()
            return results
        if chosen == "transform":
            return self._run_transform(specs)
        return [self._execute_single(chosen, rv) for rv in specs]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _run_transform(
        self, specs: Sequence[RatioVector], one_shot: bool = False
    ) -> List[EclipseResult]:
        """The transform executor behind :meth:`run` and :meth:`run_batch`.

        With every upper bound positive, each eclipse point is a raw skyline
        point, so :meth:`_transform` maps only the memoised skyline.  A
        lone one-shot (``one_shot``) without a cached skyline maps every
        row instead, then — from the session's second such query on —
        spends as long as that map took on the paused skyline build, so the
        build costs about what the full-row maps before it cost.  A zero
        upper bound disables the skyline prefilter for the whole batch:
        each spec then maps every row, as a cold one-shot would.
        """
        if not all(positive_upper_bounds(rv) for rv in specs):
            return [self._transform([rv], None)[0] for rv in specs]
        if not one_shot or self._skyline_cached():
            return self._transform(specs, self.skyline())
        start = time.perf_counter()
        results = self._transform(specs, None)
        if self._transform_answered:
            self._advance_skyline_build(time.perf_counter() - start)
        self._transform_answered = True
        return results

    def _advance_skyline_build(self, budget: float) -> None:
        """Spend about ``budget`` seconds on the paused raw-skyline build.

        The build is block sort-filter-skyline (:class:`BlockSFSBuild`),
        which returns the same indices as every other substrate; once its
        last block is screened the result becomes the memoised skyline.
        """
        deadline = time.perf_counter() + budget
        with self._kernel_scope():
            if self._skyline_build is None:
                self._skyline_build = BlockSFSBuild(self._data)
            finished = self._skyline_build.advance(deadline)
        if finished:
            self.skyline()

    def _transform(
        self, specs: Sequence[RatioVector], rows: Optional[IndexArray]
    ) -> List[EclipseResult]:
        """Stacked corner GEMM over ``rows``, skyline per spec, tie filter.

        ``rows`` are dataset positions to map (``None`` maps every row).
        The tie filter reuses the corner rows the skyline step read, and
        it makes the answer the same for every row set that contains the
        raw skyline (see :func:`~repro.core.transform.tie_filter_mask`).
        """
        points = self._data if rows is None else self._data[rows]
        corners_per_spec = 2 ** (self.dimensions - 1)
        all_corners = np.vstack([rv.corner_weight_vectors() for rv in specs])
        results = []
        with self._kernel_scope():
            # One GEMM for the batch, row-partitioned across the executor's
            # workers (row splits never re-associate partial sums, so the
            # product is byte-identical to the serial one).
            corner_matrix = parallel_matmul(points, all_corners.T)
            if rows is not None:
                self.stats.corner_matrix_builds += 1
            for position, ratio_vector in enumerate(specs):
                start = position * corners_per_spec
                mapped = corner_matrix[:, start : start + corners_per_spec]
                local = _skyline_indices(mapped, method="auto")
                local = local[
                    tie_filter_mask(points[local], mapped[local], ratio_vector)
                ]
                indices = np.sort(local if rows is None else rows[local])
                self.stats.queries += 1
                results.append(self._wrap(indices, "transform", ratio_vector))
        return results

    def _execute_single(self, method: str, ratio_vector: RatioVector) -> EclipseResult:
        if method == "transform":
            return self._run_transform([ratio_vector], one_shot=True)[0]
        if method == "baseline":
            with self._kernel_scope():
                indices = eclipse_baseline_indices(self._data, ratio_vector)
        elif method in INDEX_METHODS:
            key = index_cache_key(canonical_method(method), self._index_kwargs)
            if key not in self._indexes and not self.advisor.should_build(
                self.plan(method=method, num_queries=1), pinned=True
            ):
                # Same budgeted admission as the batch path: a pinned index
                # method on a single query still answers through the exact
                # transformation when the advisor declines the build.
                self.stats.index_builds_skipped = self.advisor.builds_skipped
                self.plan(method="transform", num_queries=1)
                return self._execute_single("transform", ratio_vector)
            index = self.index_for(method)
            with self._kernel_scope():
                indices = index.query_indices(ratio_vector)
        else:  # pragma: no cover - guarded by canonical_method
            raise AlgorithmNotSupportedError(f"unhandled method {method!r}")
        self.stats.queries += 1
        indices = np.sort(np.asarray(indices, dtype=np.intp))
        return self._wrap(indices, method, ratio_vector)

    def _wrap(
        self, indices: IndexArray, method: str, ratio_vector: RatioVector
    ) -> EclipseResult:
        return EclipseResult(
            indices=indices,
            points=self._data[indices],
            method=method,
            ratios=ratio_vector,
        )

    def _empty_result(self, method: str, ratio_vector: RatioVector) -> EclipseResult:
        empty = np.empty(0, dtype=np.intp)
        # Indexing with an empty index array keeps the column count, so an
        # empty result over (0, d) data has shape (0, d), not (0, 0).
        return EclipseResult(
            indices=empty,
            points=self._data[empty],
            method=method,
            ratios=ratio_vector,
        )

    def _resolve_ratios(self, ratios) -> RatioVector:
        if ratios is None:
            if self._default_ratios is None:
                if self.dimensions == 0:
                    raise InvalidWeightRangeError(
                        "a ratio specification is required for an empty dataset"
                    )
                return RatioVector.skyline(self.dimensions)
            return self._default_ratios
        if self.dimensions == 0:
            # Empty dataset with unknown column count: only a RatioVector
            # carries enough information to fix d.
            if isinstance(ratios, RatioVector):
                return ratios
            raise InvalidWeightRangeError(
                "cannot infer dimensionality for an empty dataset; "
                "pass a RatioVector explicitly"
            )
        vector = make_ratio_vector(ratios, self.dimensions)
        if vector.dimensions != self.dimensions:
            raise DimensionMismatchError(
                f"ratio vector is for d={vector.dimensions}, "
                f"dataset has d={self.dimensions}"
            )
        return vector
