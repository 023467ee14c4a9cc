"""Compiler passes: legalisation and optimisation of kernel dataflow graphs."""

from repro.compiler.passes.base import Pass, PassResult
from repro.compiler.passes.cascade import CascadeElevatorsPass, cascade_plan, split_delta
from repro.compiler.passes.constant_fold import ConstantFoldPass
from repro.compiler.passes.dce import DeadCodeEliminationPass
from repro.compiler.passes.eldst_buffer import EldstBufferPass, external_buffer_nodes
from repro.compiler.passes.replicate import ReplicatePass, max_replicas

__all__ = [
    "CascadeElevatorsPass",
    "ConstantFoldPass",
    "DeadCodeEliminationPass",
    "EldstBufferPass",
    "Pass",
    "PassResult",
    "ReplicatePass",
    "cascade_plan",
    "external_buffer_nodes",
    "max_replicas",
    "split_delta",
]
