"""The :class:`EclipseQuery` facade: one entry point over all four algorithms.

Most users only need this module::

    from repro import EclipseQuery

    query = EclipseQuery(hotels, ratios=(0.25, 2.0))
    result = query.run()                 # transformation algorithm
    result = query.run(method="quad")    # index-based, line quadtree
    print(result.points, result.indices)

Since the plan → session → kernels refactor the facade is a thin shim over a
:class:`~repro.core.session.DatasetSession`: method selection lives in the
cost-model planner (:mod:`repro.core.plan`), artifact caching (skyline
indices, built indexes keyed by their full parameter set) lives in the
session, and this class only preserves the historical constructor/`run`
surface.  Batch workloads should use the session directly —
:meth:`DatasetSession.run_batch` answers many ratio-range queries off one
set of shared artifacts, which is the usage pattern the index-based
algorithms are designed for.
"""

from __future__ import annotations

import numpy as np

from repro._types import ArrayLike2D, IndexArray
from repro.core.plan import INDEX_METHODS, QueryPlan, canonical_method
from repro.core.session import DatasetSession, EclipseResult
from repro.core.weights import RatioVector
from repro.errors import AlgorithmNotSupportedError
from repro.index.eclipse_index import EclipseIndex

__all__ = ["EclipseQuery", "EclipseResult", "eclipse"]


class EclipseQuery:
    """Eclipse queries over one dataset with a choice of algorithms.

    Parameters
    ----------
    points:
        Dataset of shape ``(n, d)`` with minimisation semantics ("smaller is
        better" on every attribute; see
        :meth:`repro.data.Dataset.to_minimization` for converting
        larger-is-better data).
    ratios:
        Default ratio specification used by :meth:`run` when none is given;
        anything accepted by :func:`repro.core.weights.make_ratio_vector`.
    index_kwargs:
        Extra keyword arguments forwarded to :class:`EclipseIndex` when an
        index-based method is used (e.g. ``capacity`` or ``max_ratio``).
    """

    def __init__(
        self,
        points: ArrayLike2D,
        ratios=None,
        **index_kwargs,
    ):
        self._session = DatasetSession(points, ratios=ratios, index_kwargs=index_kwargs)

    # ------------------------------------------------------------------
    @property
    def session(self) -> DatasetSession:
        """The underlying :class:`DatasetSession` (shared artifacts live here)."""
        return self._session

    @property
    def data(self) -> np.ndarray:
        """The queried dataset (a defensive copy is *not* made)."""
        return self._session.data

    @property
    def num_points(self) -> int:
        """Number of points in the dataset."""
        return self._session.num_points

    @property
    def dimensions(self) -> int:
        """Dimensionality of the dataset.

        Preserved for empty datasets too: a ``(0, d)`` array still knows its
        column count.
        """
        return self._session.dimensions

    @property
    def default_ratios(self) -> RatioVector | None:
        """The ratio vector supplied at construction time, if any."""
        return self._session.default_ratios

    # ------------------------------------------------------------------
    def run(self, ratios=None, method: str = "auto") -> EclipseResult:
        """Run an eclipse query and return an :class:`EclipseResult`.

        Parameters
        ----------
        ratios:
            Ratio specification; falls back to the constructor default.
        method:
            ``"auto"`` (default), ``"baseline"``/``"base"``,
            ``"transform"``/``"tran"``, ``"quad"``/``"quadtree"`` or
            ``"cutting"``.  ``"auto"`` resolves through the cost-model
            planner to the transformation algorithm for one-shot queries;
            it applies to every ratio range, upper bounds of zero included.
            The first query maps every point.  Later ones build the
            session's raw skyline a slice at a time and, once it is built,
            map only the skyline; a query with a zero upper bound still
            maps every point (see :meth:`DatasetSession.run`).
        """
        return self._session.run(ratios=ratios, method=method)

    def run_indices(self, ratios=None, method: str = "auto") -> IndexArray:
        """Convenience wrapper returning only the result indices."""
        return self._session.run_indices(ratios=ratios, method=method)

    def explain(self, method: str = "auto", num_queries: int = 1) -> QueryPlan:
        """Return the :class:`QueryPlan` the session would use (see ``explain()``)."""
        return self._session.plan(method=method, num_queries=num_queries)

    # ------------------------------------------------------------------
    def build_index(self, method: str = "quadtree") -> EclipseIndex:
        """Eagerly build (and cache) the index for an index-based method."""
        canonical = canonical_method(method)
        if canonical not in INDEX_METHODS:
            raise AlgorithmNotSupportedError(
                "build_index() accepts only the index-based methods "
                "'quadtree' and 'cutting'"
            )
        return self._session.index_for(canonical)


def eclipse(points: ArrayLike2D, ratios, method: str = "auto") -> np.ndarray:
    """Functional one-liner: the eclipse points of ``points`` under ``ratios``."""
    return EclipseQuery(points).run(ratios=ratios, method=method).points
