"""The dMT-CGRA compiler: passes, mapper and the compilation pipeline."""

from repro.compiler.pipeline import CompiledKernel, compile_kernel

__all__ = ["CompiledKernel", "compile_kernel"]
