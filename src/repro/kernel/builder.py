"""The kernel-builder DSL — the programming model of the paper (Table 1).

A :class:`KernelBuilder` plays the role of the CUDA front-end plus the
paper's API extensions.  Kernels are ordinary Python functions that use
the builder to emit one *static* dataflow graph; the simulators then run
that graph for every thread of the block, exactly as the MT-CGRA executes
one configured graph for a stream of threads.

The three paper primitives are provided with their original semantics:

``from_thread_or_const(var, delta, const, window=None)``
    Receive ``var`` from thread ``tid + delta`` (``delta`` may be a
    multi-dimensional offset); threads whose source falls outside the
    block or outside the transmission ``window`` receive ``const``.
    ``var`` may be a :class:`Value` or a *name* bound later with
    :meth:`tag_value` — the latter is what enables recurrences such as the
    prefix-sum example (Fig. 6), where the communicated value is defined
    in terms of the received one.

``tag_value(name, value)``
    Bind ``name`` to ``value`` so that pending ``from_thread_or_const``
    calls referencing ``name`` are connected to it.

``from_thread_or_mem(array, index, predicate, src_offset, window=None)``
    If ``predicate`` is true the thread loads ``array[index]`` itself;
    otherwise it receives the value loaded by thread ``tid + src_offset``
    (which must linearise to an earlier thread).  Maps to the eLDST unit.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import KernelBuildError
from repro.graph.dfg import DataflowGraph
from repro.graph.node import Node
from repro.graph.opcodes import DType, Opcode
from repro.graph.validate import validate_graph
from repro.kernel.arrays import ArraySpec, ArrayTable, MemorySpace
from repro.kernel.geometry import ThreadGeometry
from repro.kernel.values import Scalar, Value, ValueLike

__all__ = ["KernelBuilder"]


def _promote(a: DType, b: DType) -> DType:
    if DType.F32 in (a, b):
        return DType.F32
    if a is DType.BOOL and b is DType.BOOL:
        return DType.BOOL
    return DType.I32


class KernelBuilder:
    """Builds the dataflow graph of one SIMT kernel."""

    def __init__(self, name: str, block_dim: Sequence[int] | int) -> None:
        if isinstance(block_dim, int):
            block_dim = (block_dim,)
        self.name = name
        self.geometry = ThreadGeometry(tuple(block_dim))
        self.graph = DataflowGraph(name)
        self.arrays = ArrayTable()
        self._tagged: dict[str, Value] = {}
        self._pending_elevators: dict[str, list[Node]] = {}
        self._const_cache: dict[tuple, Node] = {}
        self._tid_cache: dict[Opcode, Node] = {}
        self._finished = False

    # ------------------------------------------------------------------ misc
    def _value(self, node: Node) -> Value:
        return Value(self, node)

    def _as_value(self, value: ValueLike, dtype: DType | None = None) -> Value:
        if isinstance(value, Value):
            if value.builder is not self:
                raise KernelBuildError("value belongs to a different kernel builder")
            return value
        if isinstance(value, float) and dtype is not None and not dtype.is_float:
            # A float literal mixed into integer arithmetic keeps its own type
            # (and promotes the operation to floating point) rather than being
            # silently truncated to the operand-hint type.
            dtype = None
        return self.const(value, dtype)

    def _check_open(self) -> None:
        if self._finished:
            raise KernelBuildError(f"kernel '{self.name}' has already been finished")

    # ------------------------------------------------------------ array decl
    def global_array(
        self, name: str, length: int, dtype: DType = DType.F32, elem_bytes: int = 4
    ) -> ArraySpec:
        """Declare a global-memory array (a kernel pointer argument)."""
        self._check_open()
        return self.arrays.declare(name, length, dtype, MemorySpace.GLOBAL, elem_bytes)

    def scratch_array(
        self, name: str, length: int, dtype: DType = DType.F32, elem_bytes: int = 4
    ) -> ArraySpec:
        """Declare a shared-memory (scratchpad) array."""
        self._check_open()
        return self.arrays.declare(name, length, dtype, MemorySpace.SHARED, elem_bytes)

    # -------------------------------------------------------------- sources
    def const(self, value: Scalar, dtype: DType | None = None) -> Value:
        """Materialise a compile-time constant."""
        self._check_open()
        if dtype is None:
            if isinstance(value, bool):
                dtype = DType.BOOL
            elif isinstance(value, float):
                dtype = DType.F32
            else:
                dtype = DType.I32
        key = (value, dtype)
        node = self._const_cache.get(key)
        if node is None:
            node = self.graph.add_node(
                Opcode.CONST, dtype, params={"value": value}, name=f"const_{value}"
            )
            self._const_cache[key] = node
        return self._value(node)

    def _tid(self, opcode: Opcode, name: str) -> Value:
        self._check_open()
        node = self._tid_cache.get(opcode)
        if node is None:
            node = self.graph.add_node(opcode, DType.I32, name=name)
            self._tid_cache[opcode] = node
        return self._value(node)

    def thread_idx_x(self) -> Value:
        """CUDA ``threadIdx.x``."""
        return self._tid(Opcode.TID_X, "tid.x")

    def thread_idx_y(self) -> Value:
        return self._tid(Opcode.TID_Y, "tid.y")

    def thread_idx_linear(self) -> Value:
        """The linearised thread ID used as the dataflow token tag."""
        return self._tid(Opcode.TID_LINEAR, "tid")

    # ------------------------------------------------------------ arithmetic
    def binary(
        self,
        opcode: Opcode,
        lhs: ValueLike,
        rhs: ValueLike,
        dtype: DType | None = None,
        name: str = "",
    ) -> Value:
        self._check_open()
        a = self._as_value(lhs)
        b = self._as_value(rhs, a.dtype)
        out_dtype = dtype or _promote(a.dtype, b.dtype)
        node = self.graph.add_node(opcode, out_dtype, name=name)
        self.graph.add_edge(a.node, node, 0)
        self.graph.add_edge(b.node, node, 1)
        return self._value(node)

    def unary(
        self, opcode: Opcode, operand: ValueLike, dtype: DType | None = None, name: str = ""
    ) -> Value:
        self._check_open()
        a = self._as_value(operand)
        node = self.graph.add_node(opcode, dtype or a.dtype, name=name)
        self.graph.add_edge(a.node, node, 0)
        return self._value(node)

    def compare(self, opcode: Opcode, lhs: ValueLike, rhs: ValueLike) -> Value:
        self._check_open()
        a = self._as_value(lhs)
        b = self._as_value(rhs, a.dtype)
        node = self.graph.add_node(opcode, DType.BOOL)
        self.graph.add_edge(a.node, node, 0)
        self.graph.add_edge(b.node, node, 1)
        return self._value(node)

    def fma(self, a: ValueLike, b: ValueLike, c: ValueLike) -> Value:
        """Fused multiply-add ``a*b + c``."""
        self._check_open()
        av = self._as_value(a)
        bv = self._as_value(b, av.dtype)
        cv = self._as_value(c, av.dtype)
        dtype = _promote(_promote(av.dtype, bv.dtype), cv.dtype)
        node = self.graph.add_node(Opcode.FMA, dtype)
        self.graph.add_edge(av.node, node, 0)
        self.graph.add_edge(bv.node, node, 1)
        self.graph.add_edge(cv.node, node, 2)
        return self._value(node)

    def minimum(self, a: ValueLike, b: ValueLike) -> Value:
        return self.binary(Opcode.MIN, a, b)

    def maximum(self, a: ValueLike, b: ValueLike) -> Value:
        return self.binary(Opcode.MAX, a, b)

    def select(self, cond: ValueLike, if_true: ValueLike, if_false: ValueLike) -> Value:
        """Predicated selection (maps to a control unit)."""
        self._check_open()
        c = self._as_value(cond, DType.BOOL)
        t = self._as_value(if_true)
        f = self._as_value(if_false, t.dtype)
        node = self.graph.add_node(Opcode.SELECT, _promote(t.dtype, f.dtype))
        self.graph.add_edge(c.node, node, 0)
        self.graph.add_edge(t.node, node, 1)
        self.graph.add_edge(f.node, node, 2)
        return self._value(node)

    def exp(self, a: ValueLike) -> Value:
        return self.unary(Opcode.EXP, a, DType.F32)

    def rcp(self, a: ValueLike) -> Value:
        return self.unary(Opcode.RCP, a, DType.F32)

    # ---------------------------------------------------------------- memory
    def _memory_node(
        self,
        opcode: Opcode,
        array: str,
        operands: list[Value],
        order: Value | None,
        dtype: DType,
    ) -> Value:
        spec = self.arrays.get(array)
        node = self.graph.add_node(
            opcode,
            dtype,
            params={"array": array, "elem_bytes": spec.elem_bytes},
            name=f"{opcode.value}_{array}",
        )
        for port, operand in enumerate(operands):
            self.graph.add_edge(operand.node, node, port)
        if order is not None:
            self.graph.add_edge(order.node, node, len(operands))
        return self._value(node)

    def load(self, array: str, index: ValueLike, order: Value | None = None) -> Value:
        """Load ``array[index]`` from global memory."""
        self._check_open()
        spec = self.arrays.get(array)
        if spec.space != MemorySpace.GLOBAL:
            raise KernelBuildError(f"'{array}' is not a global array; use scratch_load")
        idx = self._as_value(index, DType.I32)
        return self._memory_node(Opcode.LOAD, array, [idx], order, spec.dtype)

    def store(
        self, array: str, index: ValueLike, value: ValueLike, order: Value | None = None
    ) -> Value:
        """Store ``value`` to ``array[index]``; returns the store's ack token."""
        self._check_open()
        spec = self.arrays.get(array)
        if spec.space != MemorySpace.GLOBAL:
            raise KernelBuildError(f"'{array}' is not a global array; use scratch_store")
        idx = self._as_value(index, DType.I32)
        val = self._as_value(value, spec.dtype)
        return self._memory_node(Opcode.STORE, array, [idx, val], order, spec.dtype)

    def scratch_load(self, array: str, index: ValueLike, order: Value | None = None) -> Value:
        """Load from a shared-memory scratchpad array (baseline models only)."""
        self._check_open()
        spec = self.arrays.get(array)
        if spec.space != MemorySpace.SHARED:
            raise KernelBuildError(f"'{array}' is not a shared array; use load")
        idx = self._as_value(index, DType.I32)
        return self._memory_node(Opcode.SCRATCH_LOAD, array, [idx], order, spec.dtype)

    def scratch_store(
        self, array: str, index: ValueLike, value: ValueLike, order: Value | None = None
    ) -> Value:
        self._check_open()
        spec = self.arrays.get(array)
        if spec.space != MemorySpace.SHARED:
            raise KernelBuildError(f"'{array}' is not a shared array; use store")
        idx = self._as_value(index, DType.I32)
        val = self._as_value(value, spec.dtype)
        return self._memory_node(Opcode.SCRATCH_STORE, array, [idx, val], order, spec.dtype)

    def barrier(
        self, value: ValueLike, name: str = "barrier", window: int | None = None
    ) -> Value:
        """Work-group barrier: the output token is released only after every
        thread of the block has delivered its input token (used by the
        shared-memory baselines; dMT-CGRA kernels do not need it).

        ``window`` bounds the synchronisation to consecutive groups of
        ``window`` linear TIDs — the barrier twin of the transmission
        windows of Sec. 3.2.  A windowed barrier releases each group as
        soon as that group is complete, and declares to the multi-core
        partitioner that no synchronised data crosses a window boundary,
        which makes the kernel shardable at window granularity.
        """
        self._check_open()
        if window is not None and window <= 0:
            raise KernelBuildError("barrier window must be positive")
        v = self._as_value(value)
        node = self.graph.add_node(
            Opcode.BARRIER, v.dtype, params={"window": window}, name=name
        )
        self.graph.add_edge(v.node, node, 0)
        return self._value(node)

    def join(self, value: ValueLike, after: ValueLike) -> Value:
        """Order ``value`` after ``after`` (split/join unit)."""
        self._check_open()
        v = self._as_value(value)
        a = self._as_value(after)
        node = self.graph.add_node(Opcode.JOIN, v.dtype)
        self.graph.add_edge(v.node, node, 0)
        self.graph.add_edge(a.node, node, 1)
        return self._value(node)

    def output(self, name: str, value: ValueLike) -> None:
        """Expose a per-thread value as a named kernel output (for testing)."""
        self._check_open()
        v = self._as_value(value)
        node = self.graph.add_node(Opcode.OUTPUT, v.dtype, params={"name": name})
        self.graph.add_edge(v.node, node, 0)

    # --------------------------------------------- inter-thread communication
    def tag_value(self, name: str, value: ValueLike) -> Value:
        """Bind ``name`` to ``value`` (the paper's ``tagValue<var>()``)."""
        self._check_open()
        if name in self._tagged:
            raise KernelBuildError(f"variable '{name}' is already tagged")
        v = self._as_value(value)
        self._tagged[name] = v
        for node in self._pending_elevators.pop(name, []):
            self.graph.add_edge(v.node, node, 0)
        return v

    def from_thread_or_const(
        self,
        var: ValueLike | str,
        delta: int | Sequence[int],
        const: Scalar,
        window: int | None = None,
        dtype: DType | None = None,
    ) -> Value:
        """The paper's ``fromThreadOrConst<var, ΔTID, const[, win]>()``.

        ``delta`` is the source-thread offset: the executing thread receives
        the value produced by thread ``tid + delta`` (CUDA coordinates for
        multi-dimensional offsets).  Threads whose source is outside the
        block or the transmission window receive ``const`` instead.
        """
        self._check_open()
        offset = tuple(delta) if not isinstance(delta, int) else (delta,)
        linear = self.geometry.linear_offset(offset)
        if linear == 0:
            raise KernelBuildError("fromThreadOrConst delta must be non-zero")
        if window is not None and window <= 0:
            raise KernelBuildError("transmission window must be positive")
        if isinstance(var, str):
            source_value = self._tagged.get(var)
            value_dtype = dtype or (source_value.dtype if source_value else DType.F32)
        else:
            source_value = self._as_value(var)
            value_dtype = dtype or source_value.dtype
        node = self.graph.add_node(
            Opcode.ELEVATOR,
            value_dtype,
            params={
                "delta": -linear,  # hardware shift: consumer = producer + delta
                "src_offset": offset,
                "const": const,
                "window": window,
            },
            name=f"elevator_{linear:+d}",
        )
        if source_value is not None:
            self.graph.add_edge(source_value.node, node, 0)
        elif isinstance(var, str):
            self._pending_elevators.setdefault(var, []).append(node)
        return self._value(node)

    def from_thread_or_mem(
        self,
        array: str,
        index: ValueLike,
        predicate: ValueLike,
        src_offset: int | Sequence[int],
        window: int | None = None,
        order: Value | None = None,
    ) -> Value:
        """The paper's ``fromThreadOrMem<ΔTID[, win]>(address, predicate)``.

        Threads for which ``predicate`` is true issue the load themselves;
        the other threads receive the value loaded by thread
        ``tid + src_offset`` (which must be an earlier thread).
        """
        self._check_open()
        spec = self.arrays.get(array)
        if spec.space != MemorySpace.GLOBAL:
            raise KernelBuildError("fromThreadOrMem forwards global-memory values")
        offset = tuple(src_offset) if not isinstance(src_offset, int) else (src_offset,)
        linear = self.geometry.linear_offset(offset)
        if linear >= 0:
            raise KernelBuildError(
                "fromThreadOrMem source offset must reference an earlier thread "
                f"(got linear offset {linear:+d})"
            )
        if window is not None and window <= 0:
            raise KernelBuildError("transmission window must be positive")
        idx = self._as_value(index, DType.I32)
        pred = self._as_value(predicate, DType.BOOL)
        node = self.graph.add_node(
            Opcode.ELDST,
            spec.dtype,
            params={
                "array": array,
                "elem_bytes": spec.elem_bytes,
                "delta": -linear,  # forwarding distance (positive)
                "src_offset": offset,
                "window": window,
            },
            name=f"eldst_{array}",
        )
        self.graph.add_edge(idx.node, node, 0)
        self.graph.add_edge(pred.node, node, 1)
        if order is not None:
            self.graph.add_edge(order.node, node, 2)
        return self._value(node)

    # ----------------------------------------------------------------- finish
    def finish(self) -> DataflowGraph:
        """Finalise and validate the kernel graph."""
        self._check_open()
        if self._pending_elevators:
            missing = ", ".join(sorted(self._pending_elevators))
            raise KernelBuildError(
                f"fromThreadOrConst references untagged variable(s): {missing}; "
                "call tag_value() for each of them"
            )
        self.graph.metadata["block_dim"] = self.geometry.block_dim
        self.graph.metadata["num_threads"] = self.geometry.num_threads
        self.graph.metadata["arrays"] = {spec.name: spec for spec in self.arrays}
        self.graph.metadata["kernel_name"] = self.name
        validate_graph(self.graph)
        self._finished = True
        # Tagged values point back at the builder; a closed builder needs none.
        self._tagged.clear()
        return self.graph
