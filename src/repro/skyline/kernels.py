"""Memory-bounded broadcast dominance kernels.

Every skyline and eclipse hot path in this repository reduces to one
primitive: *which of these candidate rows is Pareto-dominated by one of
those dominator rows?*  (Minimisation semantics; ``p`` dominates ``q`` when
``p <= q`` everywhere and ``p < q`` somewhere.)  The seed implementations
answered it one candidate at a time from Python; the kernels here answer it
for a whole block of candidates with a single ``(B, k, d)`` broadcast,
chunked so the boolean scratch never exceeds a configurable memory cap
(see :mod:`repro.perf.blocking`).

Kernels provided:

* :func:`dominated_mask` — the core primitive, with candidate- and
  dominator-axis chunking plus early exit once every candidate in a block
  is dominated.
* :func:`dominates_matrix` — the full ``(m, k)`` pairwise dominance matrix,
  chunked over candidate rows (used by
  :func:`repro.core.dominance.eclipse_dominance_matrix`).
* :func:`block_sfs_indices` — block sort-filter-skyline: presort by a
  monotone key, then screen candidates in blocks against the confirmed
  skyline matrix, resolving intra-block dominance with the same kernel.
  :class:`BlockSFSBuild` is the same computation, pausable between blocks.
* :func:`monotone_sort_order` — the shared presort (key sum with a
  lexicographic tie-break) that makes the one-directional screening of
  block-SFS and the baseline's prefix filter valid.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from repro._types import IndexArray
from repro.perf.blocking import (
    DEFAULT_BLOCK_SIZE,
    GrowableBuffer,
    iter_blocks,
    resolve_block_size,
)
from repro.perf.executor import (
    ShmKernel,
    map_blocks,
    note_float32,
    parallel_block_size,
    resolve_dtype,
    resolve_threads,
    split_memory_cap,
)


#: Dominator rows compared against a candidate block per kernel step.  Kept
#: deliberately small: dominators are usually supplied strongest-first (sum
#: order), so the first chunk eliminates the bulk of the candidates and the
#: compression step drops them before the remaining chunks run — measured
#: 5-10x faster end-to-end than chunk sizes in the hundreds, on sorted and
#: unsorted dominator sets alike.
_DOMINATOR_CHUNK = 32

#: Upper bound on the candidate rows per kernel step.  When the dominator
#: set is small the memory cap admits very large candidate blocks; this cap
#: keeps the scratch allocation bounded without degenerating into the tiny
#: fixed blocks that made many-call overhead dominate.
_CANDIDATE_BLOCK = 16384


def _screen_block_exact(
    cand: np.ndarray,
    csums: np.ndarray,
    dominators: np.ndarray,
    dom_sums: np.ndarray,
    out: np.ndarray,
) -> None:
    """Exact float64 screen of one candidate block; writes into ``out``.

    ``out`` is a boolean view over the block's slice of the result mask —
    blocks write disjoint slices, so the screen is safe to dispatch across
    worker threads.  The arithmetic is the serial kernel's, unchanged: the
    sum-based strictness test, the rounding rescue for computed-sum ties,
    and the early-exit compression over dominator chunks.
    """
    k = dominators.shape[0]
    alive = np.arange(cand.shape[0])
    for dstart, dstop in iter_blocks(k, _DOMINATOR_CHUNK):
        dom = dominators[dstart:dstop]
        dsums = dom_sums[dstart:dstop]
        le = (dom[None, :, :] <= cand[:, None, :]).all(axis=2)
        sum_lt = dsums[None, :] < csums[:, None]
        hit = (le & sum_lt).any(axis=1)
        # Rounding rescue: a dominator that is <= everywhere but whose
        # *computed* sum ties the candidate's either equals it (no
        # domination) or strictly improves a coordinate too small to
        # register in the sum.  Decide those few pairs exactly.
        ties = le & ~sum_lt & (dsums[None, :] == csums[:, None])
        if ties.any():
            rows = np.flatnonzero(~hit & ties.any(axis=1))
            if rows.size:
                ii, jj = np.nonzero(ties[rows])
                strict = (dom[jj] < cand[rows][ii]).any(axis=1)
                if strict.any():
                    hit[rows[np.unique(ii[strict])]] = True
        if hit.any():
            out[alive[hit]] = True
            keep = ~hit
            alive = alive[keep]
            if alive.size == 0:
                break
            cand = cand[keep]
            csums = csums[keep]


def _screen_block_f32(
    cand64: np.ndarray,
    cand32: np.ndarray,
    dominators: np.ndarray,
    dom32: np.ndarray,
    dom_sums: np.ndarray,
    csums64: Optional[np.ndarray],
    out: np.ndarray,
) -> tuple:
    """Float32 screen of one candidate block with an exact fallback.

    Rounding float64 to float32 is monotone, so a *strict* float32
    inequality is certain in raw space: a dominator strictly below a
    candidate in every float32 coordinate strictly dominates it exactly.
    Only float32 **ties** are ambiguous — the two float64 values may order
    either way (or be equal).  The screen therefore decides candidates on
    strict float32 comparisons alone and re-verifies the rest — candidates
    with at least one tied-but-never-worse dominator and no certain hit —
    with the exact float64 kernel, making the result byte-identical to the
    float64 path by construction.

    Returns ``(fastpath_rows, fallback_rows)`` for the executor telemetry.
    """
    k = dom32.shape[0]
    block_rows = cand32.shape[0]
    ambiguous = np.zeros(block_rows, dtype=bool)
    alive = np.arange(block_rows)
    cand = cand32
    for dstart, dstop in iter_blocks(k, _DOMINATOR_CHUNK):
        dom = dom32[dstart:dstop]
        le = (dom[None, :, :] <= cand[:, None, :]).all(axis=2)
        lt = (dom[None, :, :] < cand[:, None, :]).all(axis=2)
        hit = lt.any(axis=1)
        near_tie = (le & ~lt).any(axis=1)
        if near_tie.any():
            ambiguous[alive[near_tie]] = True
        if hit.any():
            out[alive[hit]] = True
            keep = ~hit
            alive = alive[keep]
            if alive.size == 0:
                break
            cand = cand[keep]
    fallback = np.flatnonzero(ambiguous & ~out)
    if fallback.size:
        rows = cand64[fallback]
        csums = (
            rows.sum(axis=1) if csums64 is None else csums64[fallback]
        )
        exact = np.zeros(fallback.size, dtype=bool)
        _screen_block_exact(rows, csums, dominators, dom_sums, exact)
        out[fallback[exact]] = True
    return block_rows - int(fallback.size), int(fallback.size)


def _screen_chunk_shm(arrays, start: int, stop: int) -> None:
    """Process-backend candidate block of the exact screen (same arithmetic)."""
    _screen_block_exact(
        arrays["cand"][start:stop],
        arrays["csums"][start:stop],
        arrays["dom"],
        arrays["dsums"],
        arrays["mask"][start:stop],
    )


def _screen_chunk_f32_shm(arrays, start: int, stop: int) -> tuple:
    """Process-backend candidate block of the float32 screen."""
    csums = arrays.get("csums")
    return _screen_block_f32(
        arrays["cand"][start:stop],
        arrays["cand32"][start:stop],
        arrays["dom"],
        arrays["dom32"],
        arrays["dsums"],
        None if csums is None else csums[start:stop],
        arrays["mask"][start:stop],
    )


def dominated_mask(
    candidates: np.ndarray,
    dominators: np.ndarray,
    memory_cap: Optional[int] = None,
    cand_sums: Optional[np.ndarray] = None,
    dom_sums: Optional[np.ndarray] = None,
    threads: Optional[int] = None,
    compute_dtype: Optional[str] = None,
) -> np.ndarray:
    """Boolean mask over ``candidates``: True where some dominator dominates.

    Strict Pareto dominance under minimisation semantics.  Rows of
    ``candidates`` that also appear in ``dominators`` (duplicates, or the
    candidate itself) are never flagged: equality fails the strictness
    requirement, so the kernel is safe to call with overlapping inputs.

    The strictness test rides on the attribute sum instead of a second
    ``(B, K, d)`` broadcast: ``p`` dominates ``q`` iff ``p <= q`` everywhere
    *and* ``sum(p) < sum(q)`` — a strict coordinate forces a strictly
    smaller sum, and equal-everywhere rows have equal sums.  When floating
    point rounding collapses two mathematically different sums to the same
    value the kernel falls back to an exact elementwise check for just those
    pairs, so the result matches the definition bit for bit.

    The ``(B, K, d)`` comparison broadcast is chunked on both the candidate
    axis (``B``, bounded by the memory cap) and the dominator axis
    (:data:`_DOMINATOR_CHUNK`); candidates already known to be dominated are
    dropped from subsequent dominator chunks, which turns sum-ordered
    dominator sets into an early-exit filter.

    ``cand_sums`` / ``dom_sums`` accept precomputed row sums (callers that
    already sorted by the monotone key pass them to avoid recomputation).

    ``threads`` dispatches the candidate blocks across the shared kernel
    executor (default: the ambient :func:`repro.perf.executor.kernel_context`
    or ``REPRO_KERNEL_THREADS``; 1 takes the exact serial code path).  The
    memory cap divides across workers, and blocks write disjoint slices of
    the result, so answers are byte-identical at every thread count.

    ``compute_dtype="float32"`` opts one call into the single-precision
    fast path (see :func:`_screen_block_f32`): comparisons run in float32
    and only float32-tied rows are re-verified in exact float64, so the
    result is still byte-identical to the float64 kernel.
    """
    m, k = candidates.shape[0], dominators.shape[0]
    if m == 0 or k == 0:
        return np.zeros(m, dtype=bool)
    d = candidates.shape[1]
    count = resolve_threads(threads)
    use_f32 = (
        resolve_dtype(compute_dtype) == "float32"
        and candidates.dtype == np.float64
        and dominators.dtype == np.float64
    )
    if dom_sums is None:
        dom_sums = dominators.sum(axis=1)
    if cand_sums is None and not use_f32:
        cand_sums = candidates.sum(axis=1)

    mask = np.zeros(m, dtype=bool)
    effective_cap = memory_cap if count <= 1 else split_memory_cap(memory_cap, count)
    block = resolve_block_size(
        min(k, _DOMINATOR_CHUNK),
        d,
        memory_cap=effective_cap,
        preferred=_CANDIDATE_BLOCK,
    )
    if count > 1:
        block = parallel_block_size(m, block, count)

    # The broadcast scratch (m x k boolean comparisons over d coordinates)
    # dwarfs the wire payload, so the process-backend gate measures the
    # former: a compact candidate/dominator pair can still be worth a
    # dispatch when the comparison volume is large.
    work_hint = int(m) * int(k) * int(d)
    if use_f32:
        cand32 = candidates.astype(np.float32)
        dom32 = dominators.astype(np.float32)

        def worker(start: int, stop: int) -> tuple:
            return _screen_block_f32(
                candidates[start:stop],
                cand32[start:stop],
                dominators,
                dom32,
                dom_sums,
                None if cand_sums is None else cand_sums[start:stop],
                mask[start:stop],
            )

        inputs = {
            "cand": candidates,
            "cand32": cand32,
            "dom": dominators,
            "dom32": dom32,
            "dsums": dom_sums,
        }
        if cand_sums is not None:
            inputs["csums"] = cand_sums
        kernel = ShmKernel(
            _screen_chunk_f32_shm,
            inputs=inputs,
            outputs={"mask": mask},
            work_hint_bytes=work_hint,
        )
        counts = map_blocks(worker, m, block, threads=count, shm_kernel=kernel)
        note_float32(
            sum(c[0] for c in counts), sum(c[1] for c in counts)
        )
    else:

        def worker(start: int, stop: int) -> None:
            _screen_block_exact(
                candidates[start:stop],
                cand_sums[start:stop],
                dominators,
                dom_sums,
                mask[start:stop],
            )

        kernel = ShmKernel(
            _screen_chunk_shm,
            inputs={
                "cand": candidates,
                "csums": cand_sums,
                "dom": dominators,
                "dsums": dom_sums,
            },
            outputs={"mask": mask},
            work_hint_bytes=work_hint,
        )
        map_blocks(worker, m, block, threads=count, shm_kernel=kernel)
    return mask


def _dominates_chunk_shm(arrays, start: int, stop: int) -> None:
    """Process-backend row chunk of :func:`dominates_matrix` (same split)."""
    chunk = arrays["rows"][start:stop, None, :]
    others = arrays["others"]
    le = (chunk <= others[None, :, :]).all(axis=2)
    lt = (chunk < others[None, :, :]).any(axis=2)
    arrays["out"][start:stop] = le & lt


def dominates_matrix(
    rows: np.ndarray,
    others: np.ndarray,
    memory_cap: Optional[int] = None,
    threads: Optional[int] = None,
) -> np.ndarray:
    """Full pairwise dominance matrix: ``out[i, j]`` iff row i dominates other j.

    Chunked over the first axis so the broadcast scratch respects the memory
    cap; the chunks are independent row ranges of ``out``, so they dispatch
    across the kernel executor when ``threads`` (or the ambient context)
    asks for more than one worker.  Note the orientation is the transpose
    of :func:`dominated_mask`: here the *first* argument supplies the
    dominators.
    """
    m, k = rows.shape[0], others.shape[0]
    out = np.zeros((m, k), dtype=bool)
    if m == 0 or k == 0:
        return out
    d = rows.shape[1]
    count = resolve_threads(threads)
    effective_cap = memory_cap if count <= 1 else split_memory_cap(memory_cap, count)
    block = resolve_block_size(k, d, memory_cap=effective_cap)
    if count > 1:
        block = parallel_block_size(m, block, count)

    def worker(start: int, stop: int) -> None:
        chunk = rows[start:stop, None, :]
        le = (chunk <= others[None, :, :]).all(axis=2)
        lt = (chunk < others[None, :, :]).any(axis=2)
        out[start:stop] = le & lt

    kernel = ShmKernel(
        _dominates_chunk_shm,
        inputs={"rows": rows, "others": others},
        outputs={"out": out},
        work_hint_bytes=int(m) * int(k) * int(d),
    )
    map_blocks(worker, m, block, threads=count, shm_kernel=kernel)
    return out


def monotone_sort_order(
    data: np.ndarray, sums: Optional[np.ndarray] = None
) -> np.ndarray:
    """Sort order by attribute sum with a lexicographic tie-break.

    The sum is monotone under Pareto dominance: a strict dominator has a
    strictly smaller *mathematical* sum, so after sorting a row can only be
    dominated by earlier rows.  The lexicographic tie-break is load-bearing,
    not cosmetic: floating-point rounding can collapse two mathematically
    different sums to the same computed value, and among such ties a
    dominator (``<=`` everywhere, ``<`` somewhere) always precedes the row
    it dominates lexicographically.  Without it, a block algorithm could
    confirm a dominated row before its equal-computed-sum dominator is ever
    compared against it.
    """
    if sums is None:
        sums = data.sum(axis=1)
    keys = tuple(data[:, j] for j in range(data.shape[1] - 1, -1, -1)) + (sums,)
    return np.lexsort(keys)


def block_sfs_indices(
    data: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
    memory_cap: Optional[int] = None,
    threads: Optional[int] = None,
    compute_dtype: Optional[str] = None,
) -> IndexArray:
    """Sorted skyline indices of ``data`` via block sort-filter-skyline.

    Sorts by the monotone key, then screens candidates in blocks of
    ``block_size``: one broadcast against the confirmed-skyline matrix
    eliminates candidates dominated by earlier blocks, and a pairwise
    kernel call over the survivors resolves intra-block dominance.  The
    intra-block pass may use dominated survivors as dominators — dominance
    is transitive, so any point they dominate is also dominated by a
    confirmed point or survivor, and the result is unchanged.

    Duplicates never strictly dominate each other, so all copies survive,
    exactly as in the seed implementations.

    ``threads`` / ``compute_dtype`` forward to the :func:`dominated_mask`
    calls — the outer block loop stays sequential (each block depends on
    the confirmed window of all earlier ones), so the parallelism lives in
    the per-block screens, whose candidate chunks are independent.
    """
    if data.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    build = BlockSFSBuild(
        data,
        block_size=block_size,
        memory_cap=memory_cap,
        threads=threads,
        compute_dtype=compute_dtype,
    )
    build.advance()
    return build.indices()


class BlockSFSBuild:
    """A :func:`block_sfs_indices` computation that can pause between blocks.

    The confirmed window after any block is the skyline of every row
    screened so far (later rows in the monotone order cannot dominate
    earlier ones), so the computation can stop after any block and resume
    later with nothing recomputed.  :meth:`advance` runs blocks until a
    deadline passes; callers that want a skyline without paying for it in
    one go spread the blocks over several calls.  The state is plain
    arrays, so a paused build pickles.
    """

    def __init__(
        self,
        data: np.ndarray,
        block_size: int = DEFAULT_BLOCK_SIZE,
        memory_cap: Optional[int] = None,
        threads: Optional[int] = None,
        compute_dtype: Optional[str] = None,
    ):
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        n = data.shape[0]
        sums = data.sum(axis=1)
        self._order = monotone_sort_order(data, sums=sums)
        self._ranked = data[self._order]
        self._ranked_sums = sums[self._order]
        self._block_size = int(block_size)
        self._position = 0
        self._memory_cap = memory_cap
        self._threads = threads
        self._compute_dtype = compute_dtype
        self._confirmed = GrowableBuffer(
            data.shape[1], capacity=min(1024, max(64, n // 8)), track_sums=True
        )

    @property
    def done(self) -> bool:
        """Whether every row has been screened."""
        return self._position >= self._ranked.shape[0]

    def advance(self, deadline: float = math.inf) -> bool:
        """Screen blocks until ``time.perf_counter()`` reaches ``deadline``.

        A call on an unfinished build screens at least one block, so
        repeated calls always finish.  Returns :attr:`done`.
        """
        timed = deadline < math.inf
        while self._position < self._ranked.shape[0]:
            self._screen_block()
            if timed and time.perf_counter() >= deadline:
                break
        return self.done

    def indices(self) -> IndexArray:
        """Sorted skyline indices; only valid once :attr:`done`."""
        return np.sort(self._confirmed.indices)

    def _screen_block(self) -> None:
        start = self._position
        stop = min(start + self._block_size, self._ranked.shape[0])
        self._position = stop
        confirmed = self._confirmed
        block = self._ranked[start:stop]
        block_sums = self._ranked_sums[start:stop]
        screened = dominated_mask(
            block,
            confirmed.rows,
            memory_cap=self._memory_cap,
            cand_sums=block_sums,
            dom_sums=confirmed.sums,
            threads=self._threads,
            compute_dtype=self._compute_dtype,
        )
        keep = ~screened
        survivors = block[keep]
        survivor_idx = self._order[start:stop][keep]
        survivor_sums = block_sums[keep]
        if survivors.shape[0] > 1:
            intra = dominated_mask(
                survivors,
                survivors,
                memory_cap=self._memory_cap,
                cand_sums=survivor_sums,
                dom_sums=survivor_sums,
                threads=self._threads,
                compute_dtype=self._compute_dtype,
            )
            keep = ~intra
            survivors = survivors[keep]
            survivor_idx = survivor_idx[keep]
            survivor_sums = survivor_sums[keep]
        confirmed.append_batch(survivors, survivor_idx, sums=survivor_sums)
