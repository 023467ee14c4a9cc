"""Workload registry — the programmatic form of the paper's Table 3."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from repro.errors import WorkloadError
from repro.workloads.base import Workload
from repro.workloads.bpnn import BpnnWorkload
from repro.workloads.convolution import ConvolutionWorkload
from repro.workloads.hotspot import HotspotWorkload
from repro.workloads.lud import LudWorkload
from repro.workloads.matmul import MatmulWorkload
from repro.workloads.pathfinder import PathfinderWorkload
from repro.workloads.reduce import ReduceWorkload
from repro.workloads.scan import ScanWorkload
from repro.workloads.spmv import SpmvWorkload
from repro.workloads.srad import SradWorkload

__all__ = [
    "WORKLOAD_CLASSES",
    "all_workloads",
    "available_variants",
    "check_variant",
    "get_workload",
    "paper_workloads",
    "registry_kernel_count",
    "registry_kernels",
    "table3",
    "workload_names",
]

#: Table 3 order, plus the registry extensions (spmv) after the paper's rows.
WORKLOAD_CLASSES: tuple[type[Workload], ...] = (
    ScanWorkload,
    MatmulWorkload,
    ConvolutionWorkload,
    ReduceWorkload,
    LudWorkload,
    SradWorkload,
    BpnnWorkload,
    HotspotWorkload,
    PathfinderWorkload,
    SpmvWorkload,
)


def all_workloads() -> list[Workload]:
    """Instantiate every registry workload in table order."""
    return [cls() for cls in WORKLOAD_CLASSES]


def paper_workloads() -> list[Workload]:
    """The paper's own Table 3 rows (registry extensions excluded).

    Differential sweeps and CI gates cover :func:`all_workloads`; the
    paper-artifact renderers (Table 3, Fig. 5, the Fig. 11/12 suite)
    default to this subset so the reproduced figures keep the paper's
    exact inventory as the registry grows.
    """
    return [w for w in all_workloads() if w.suite != "Extension"]


def workload_names() -> list[str]:
    return [cls.name for cls in WORKLOAD_CLASSES]


def get_workload(name: str) -> Workload:
    """Look a workload up by its Table 3 application name."""
    for cls in WORKLOAD_CLASSES:
        if cls.name == name:
            return cls()
    raise WorkloadError(
        f"unknown workload '{name}'; available: {', '.join(workload_names())}"
    )


def available_variants(workload: Workload) -> tuple[str, ...]:
    """The dataflow-graph variants this workload declares.

    Every workload has ``mt``, ``dmt`` and ``stream``; ``dmt_win``
    exists where the communication structure admits it (see
    :meth:`Workload.has_windowed_variant`).
    This is the single source of truth for "how many kernels does the
    registry hold" — sweeps and gates must derive their expected counts
    from :func:`registry_kernels` instead of hard-coding them, so adding
    a variant can never silently shrink their coverage.
    """
    return _class_variants(type(workload))


@lru_cache(maxsize=None)
def _class_variants(cls: type[Workload]) -> tuple[str, ...]:
    # Cached per class: ``has_windowed_variant`` may build the default
    # dMT graph, which no per-request check should pay for.
    workload = cls()
    variants = ["mt", "dmt"]
    if workload.has_windowed_variant():
        variants.append("dmt_win")
    variants.append("stream")
    return tuple(variants)


def check_variant(workload: Workload, variant: str) -> None:
    """Raise :class:`WorkloadError` unless ``workload`` runs ``variant``.

    The one statement of a legal run point's variant: the SIMT baseline
    ``fermi`` or one of :func:`available_variants`.  The harness, serve
    requests and campaign specs all check through it.
    """
    legal = ("fermi", *available_variants(workload))
    if variant not in legal:
        raise WorkloadError(
            f"workload '{workload.name}' has no variant {variant!r}; "
            f"expected one of {list(legal)}"
        )


def registry_kernels() -> list[tuple[Workload, str]]:
    """Every (workload, variant) kernel the registry declares, in order."""
    return [
        (workload, variant)
        for workload in all_workloads()
        for variant in available_variants(workload)
    ]


def registry_kernel_count() -> int:
    """Number of workload x variant kernels in the registry."""
    return len(registry_kernels())


def table3(workloads: Iterable[Workload] | None = None) -> list[dict[str, str]]:
    """The rows of Table 3 (application, domain, kernel, description)."""
    return [w.table3_row() for w in (workloads or paper_workloads())]
