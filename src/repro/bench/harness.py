"""Experiment definitions: one object per paper table / figure.

``REPRO_N`` in the environment scales every experiment's insertion count
(default: the paper's 40,000).  Key streams are cached per (workload,
dims, N) so the twelve cells of one table reuse one stream — the paper
runs all schemes over the same insertions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, Type

from repro.core import BMEHTree, MDEH, MEHTree, MultidimensionalIndex
from repro.analysis.metrics import GrowthSeries, RunMetrics, measure_run
from repro.workloads import normal_keys, uniform_keys, unique
from repro.bench.paper_data import PAPER_N

SCHEMES: dict[str, Type[MultidimensionalIndex]] = {
    "MDEH": MDEH,
    "MEHTree": MEHTree,
    "BMEHTree": BMEHTree,
}

_KEY_CACHE: dict[tuple, list] = {}


def experiment_scale() -> int:
    """Keys per run: the paper's 40,000 unless ``REPRO_N`` overrides."""
    return int(os.environ.get("REPRO_N", PAPER_N))


def _keys(workload: str, dims: int, n: int, seed: int = 1986) -> list:
    cached = _KEY_CACHE.get((workload, dims, n, seed))
    if cached is not None:
        return cached
    if workload == "uniform":
        keys = unique(uniform_keys(n, dims, seed=seed))
    elif workload == "normal":
        keys = unique(normal_keys(n, dims, seed=seed))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _KEY_CACHE[(workload, dims, n, seed)] = keys
    return keys


@dataclass(frozen=True)
class Gates:
    """One bench mode's gates, declared beside its runner.

    ``absolute`` checks hold on every run, fresh or ``--compare``;
    ``worse_if_higher`` / ``worse_if_lower`` name the metrics the
    ``--compare`` diff gate holds within a relative tolerance of the
    baseline.
    """

    absolute: tuple[Callable[[Sequence[Mapping]], list[str]], ...]
    worse_if_higher: tuple[str, ...] = ()
    worse_if_lower: tuple[str, ...] = ()


@dataclass(frozen=True)
class TableExperiment:
    """One of the paper's §5 tables."""

    name: str  # "table2" / "table3" / "table4"
    workload: str  # "uniform" / "normal"
    dims: int

    def keys(self, n: int | None = None) -> list:
        return _keys(self.workload, self.dims, n or experiment_scale())


TABLE_EXPERIMENTS = {
    "table2": TableExperiment("table2", "uniform", 2),
    "table3": TableExperiment("table3", "normal", 2),
    "table4": TableExperiment("table4", "uniform", 3),
}

FIGURE_EXPERIMENTS = {
    # Figures 6 and 7 plot directory growth for b = 8 under the two
    # 2-dimensional workloads.
    "fig6": TableExperiment("fig6", "uniform", 2),
    "fig7": TableExperiment("fig7", "normal", 2),
}


def make_index(
    scheme: str,
    dims: int,
    page_capacity: int,
    **options,
) -> MultidimensionalIndex:
    """Instantiate a scheme with the paper's parameters.

    Pseudo-key width is 31 bits: the paper's keys are "pseudo random
    integers in [0, 2^31 - 1]", so bit 31 is the deepest *informative*
    bit.  Indexing the 31-bit domain with 32-bit codes would make every
    component's leading bit a constant 0 — each region would waste its
    first split per dimension separating keys from an empty half, and
    every directory would come out exactly one doubling per dimension
    larger than the paper's.
    """
    cls = SCHEMES[scheme]
    return cls(dims=dims, page_capacity=page_capacity, widths=31, **options)


_ABSENT_PROBE_POOL = 3000


def _split_stream(experiment: TableExperiment, n: int | None) -> tuple[list, list]:
    """One workload stream: the first ``n`` keys are inserted, the rest
    serve as distribution-faithful unsuccessful-search probes."""
    n = n or experiment_scale()
    stream = experiment.keys(n + _ABSENT_PROBE_POOL)
    return stream[:n], stream[n:]


def run_table_cell(
    experiment: TableExperiment,
    scheme: str,
    page_capacity: int,
    n: int | None = None,
    **options,
) -> RunMetrics:
    """Measure one (scheme, b) cell of a table experiment."""
    index = make_index(scheme, experiment.dims, page_capacity, **options)
    inserted, probes = _split_stream(experiment, n)
    metrics, _ = measure_run(index, inserted, absent_candidates=probes)
    return metrics


def growth_series(
    experiment: TableExperiment,
    scheme: str,
    page_capacity: int = 8,
    checkpoints: int = 20,
    n: int | None = None,
    **options,
) -> tuple[RunMetrics, GrowthSeries]:
    """Directory-size-vs-insertions series for the figure experiments."""
    index = make_index(scheme, experiment.dims, page_capacity, **options)
    inserted, probes = _split_stream(experiment, n)
    return measure_run(
        index,
        inserted,
        growth_checkpoints=checkpoints,
        absent_candidates=probes,
    )
