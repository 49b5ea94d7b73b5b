"""Span tracer for the traced benchmark run.

The tracer wraps the program's public functions and methods where their
callers look them up (every ``mctse.*`` module attribute that refers to the
same function object), and wraps each backward rule that ``make_node``
records, keyed by the rule's qualified name. Nothing in ``src/`` is edited.

A span records its name, stage, start, end and parent span. Spans are kept
in memory and written out when the run ends. Spans are recorded only while
``stage`` is set, which the workloads do for their measured rounds only.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

STAGES = ("s1", "s2")

_ELEMENTWISE = (
    "add", "sub", "mul", "scale", "sigmoid", "tanh", "relu", "abs_", "log10",
    "square", "sqrt", "prelu", "softmax", "layer_norm", "channel_bias",
    "reduce_sum", "mean",
)
_SHAPE = (
    "concat", "slice_axis", "reshape", "transpose", "tile_rows", "repeat_rows",
    "gather_rows",
)

# (module, function) -> layer. A forward span carries the layer name; a
# backward rule defined inside one of these functions becomes "<layer>.bwd".
LAYERS = {
    ("mctse.ops", "conv2d"): "ops.conv2d",
    ("mctse.ops", "conv2d_transpose"): "ops.conv2d_transpose",
    ("mctse.ops", "matmul"): "ops.matmul",
    **{("mctse.ops", name): "ops.elementwise" for name in _ELEMENTWISE},
    **{("mctse.ops", name): "ops.shape" for name in _SHAPE},
    ("mctse.nn_blocks", "lstm_forward_batch"): "nn_blocks.lstm",
    ("mctse.nn_blocks", "linear"): "nn_blocks.linear",
    ("mctse.nn_blocks", "complex_conv2d"): "nn_blocks.complex_conv",
    ("mctse.nn_blocks", "complex_conv2d_transpose"): "nn_blocks.complex_conv",
    ("mctse.nn_blocks", "multi_head_attention"): "nn_blocks.attention",
    ("mctse.clue_net", "encode_sound"): "clue_net.encode_sound",
    ("mctse.clue_net", "encode_clues"): "clue_net.encode_clues",
    ("mctse.clue_net", "fuse_clues"): "clue_net.fuse_clues",
    ("mctse.dccrn", "run_model"): "dccrn.run_model",
    ("mctse.dccrn", "extract"): "dccrn.extract",
    ("mctse.dccrn", "save_checkpoint"): "dccrn.save_checkpoint",
    ("mctse.dccrn", "load_checkpoint"): "dccrn.load_checkpoint",
    ("mctse.dccrn", "Model.encode"): "dccrn.encode",
    ("mctse.dccrn", "Model.enhance"): "dccrn.enhance",
    ("mctse.dccrn", "Model.decode"): "dccrn.decode",
    ("mctse.signal", "stft_array"): "signal.stft_array",
    ("mctse.signal", "istft_op"): "signal.istft_op",
    ("mctse.train_eval", "train"): "train_eval.train",
    ("mctse.train_eval", "evaluate"): "train_eval.evaluate",
    ("mctse.train_eval", "extraction_loss"): "train_eval.extraction_loss",
    ("mctse.train_eval", "adam_step"): "train_eval.adam_step",
    ("mctse.data_sim", "example_from_record"): "data_sim.example_from_record",
}
# Backward rules are named by the function that defines them; the LSTM's
# rule lives in the per-direction op, which runs inside lstm_forward_batch.
RULE_OWNERS = {**LAYERS, ("mctse.nn_blocks", "_lstm_direction_op"): "nn_blocks.lstm"}

# Per-layer metric -> (layer span, statistic). "calls" counts spans, "self"
# sums self time; the tensor.* graph figures are measured, not spans.
_BASE_METRICS = {
    "tensor.backward.s": ("tensor.backward", "self"),
    "tensor.trace.s": ("tensor.trace", "self"),
    "tensor.nodes": ("tensor.nodes", "graph"),
    "tensor.unreached_nodes": ("tensor.unreached_nodes", "graph"),
    "tensor.graph_mb": ("tensor.graph_mb", "graph"),
    "tensor.nonleaf_grad_mb": ("tensor.nonleaf_grad_mb", "graph"),
    **{
        f"{layer}.{stat}": (layer + (".bwd" if stat == "bwd_s" else ""),
                            "calls" if stat == "calls" else "self")
        for layer in ("ops.conv2d", "ops.conv2d_transpose", "ops.matmul",
                      "ops.elementwise", "ops.shape", "nn_blocks.lstm")
        for stat in ("calls", "fwd_s", "bwd_s")
    },
    "nn_blocks.linear.fwd_s": ("nn_blocks.linear", "self"),
    "nn_blocks.linear.bwd_s": ("nn_blocks.linear.bwd", "self"),
    "nn_blocks.complex_conv.fwd_s": ("nn_blocks.complex_conv", "self"),
    "nn_blocks.attention.fwd_s": ("nn_blocks.attention", "self"),
    "clue_net.encode_sound.calls": ("clue_net.encode_sound", "calls"),
    "clue_net.encode_sound.s": ("clue_net.encode_sound", "self"),
    "clue_net.encode_clues.s": ("clue_net.encode_clues", "self"),
    "clue_net.fuse_clues.s": ("clue_net.fuse_clues", "self"),
    "dccrn.run_model.calls": ("dccrn.run_model", "calls"),
    "dccrn.encode.calls": ("dccrn.encode", "calls"),
    "dccrn.encode.s": ("dccrn.encode", "self"),
    "dccrn.enhance.s": ("dccrn.enhance", "self"),
    "dccrn.decode.s": ("dccrn.decode", "self"),
    "dccrn.save_checkpoint.s": ("dccrn.save_checkpoint", "self"),
    "dccrn.load_checkpoint.s": ("dccrn.load_checkpoint", "self"),
    "signal.stft_array.calls": ("signal.stft_array", "calls"),
    "signal.stft_array.s": ("signal.stft_array", "self"),
    "signal.istft_op.fwd_s": ("signal.istft_op", "self"),
    "signal.istft_op.bwd_s": ("signal.istft_op.bwd", "self"),
    "train_eval.extraction_loss.s": ("train_eval.extraction_loss", "self"),
    "train_eval.adam_step.s": ("train_eval.adam_step", "self"),
    "data_sim.example_from_record.calls": ("data_sim.example_from_record", "calls"),
    "data_sim.example_from_record.s": ("data_sim.example_from_record", "self"),
}


def _unit(base: str) -> str:
    if base.endswith("_mb"):
        return "MB"
    if base.endswith(".s") or base.endswith("_s"):
        return "s"
    return "count"


# Every per-layer metric the traced run prints, with its unit.
PER_LAYER = {f"{stage}.{base}": _unit(base) for stage in STAGES for base in _BASE_METRICS}


def _owner_bytes(arrays, skip: set[int]) -> int:
    """Bytes of the distinct buffers behind the arrays, minus those in skip."""
    owners = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        owners.setdefault(id(a), a)
    return sum(a.nbytes for key, a in owners.items() if key not in skip)


def _closure_arrays(fn, depth: int = 2):
    """ndarrays a backward rule keeps alive through its closure."""
    fn = getattr(fn, "__wrapped__", fn)
    for cell in fn.__closure__ or ():
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell
            continue
        if isinstance(value, np.ndarray):
            yield value
        elif callable(value) and depth > 1 and getattr(value, "__closure__", None):
            yield from _closure_arrays(value, depth - 1)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, stage, start_ns, end_ns, parent]
        self._open: list[int] = []
        self.stage: str | None = None
        # tensor.* figures: name -> stage -> list of per-forward/backward values
        self.graph: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        # Recorded nodes built since the training forward began. A count, not
        # the nodes: holding them would move their release out of the timed calls.
        self._created: int | None = None

    def set_stage(self, stage: str | None) -> None:
        """Record spans under stage from now on; None stops recording."""
        self.stage = stage
        self._created = None

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.stage is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            span = [name, tracer.stage, time.perf_counter_ns(), 0, parent]
            tracer.spans.append(span)
            tracer._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._open.pop()
                span[3] = time.perf_counter_ns()

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever an mctse module refers to it."""
        from mctse import tensor

        Tape = tensor.Tape
        trace_fn = Tape.__dict__["trace"].__func__
        run_fn = Tape.__dict__["run_backward"]
        make_node = tensor.make_node
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("mctse")]
        tracer = self

        for (module_name, attr), layer in LAYERS.items():
            if attr.startswith("Model."):
                cls = sys.modules[module_name].Model
                meth = attr.split(".")[1]
                setattr(cls, meth, self._wrap(layer, cls.__dict__[meth]))
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(layer, original)
            if attr == "run_model":
                wrapped = self._graph_probe(wrapped, lambda root: trace_fn(Tape, root))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

        def traced_make_node(data, parents, rule):
            if tracer.stage is not None:
                owner = rule.__qualname__.split(".<locals>")[0]
                layer = RULE_OWNERS.get((rule.__module__, owner), f"{rule.__module__}.{owner}")
                rule = tracer._wrap(f"{layer}.bwd", rule)
            out = make_node(data, parents, rule)
            if tracer._created is not None and out._backward is not None:
                tracer._created += 1
            return out

        for module in modules:
            if getattr(module, "make_node", None) is make_node:
                module.make_node = traced_make_node

        trace_span = self._wrap("tensor.trace", trace_fn)
        run_span = self._wrap("tensor.backward", run_fn)

        def trace_and_count(cls, root):
            tape = trace_span(cls, root)
            if tracer.stage is not None and tracer._created is not None:
                # Every non-leaf node on a loss's tape was built in this forward.
                on_tape = sum(1 for n in tape.nodes if n._backward is not None)
                tracer.graph["tensor.unreached_nodes"][tracer.stage].append(
                    tracer._created - on_tape)
            tracer._created = None
            return tape

        def run_and_measure(tape, root, seed):
            run_span(tape, root, seed)
            if tracer.stage is not None:
                grads = [n.grad for n in tape.nodes
                         if n._backward is not None and n.grad is not None]
                tracer.graph["tensor.nonleaf_grad_mb"][tracer.stage].append(
                    _owner_bytes(grads, set()) / 1e6)

        Tape.trace = classmethod(trace_and_count)
        Tape.run_backward = run_and_measure

    def _graph_probe(self, run_model, walk):
        """Around run_model: count the graph it builds and the bytes it holds."""
        tracer = self

        @functools.wraps(run_model)
        def probed(*args, **kwargs):
            if tracer.stage is None:
                return run_model(*args, **kwargs)
            tracer._created = 0
            out = run_model(*args, **kwargs)
            nodes, leaves, seen = [], [], set()
            for root in (out.wave, out.attention):
                if root is None:
                    continue
                for node in walk(root).nodes:
                    if id(node) not in seen:
                        seen.add(id(node))
                        (nodes if node._backward is not None else leaves).append(node)
            arrays = [n.data for n in nodes]
            for n in nodes:
                arrays.extend(_closure_arrays(n._backward))
            params = set()
            for leaf in leaves:
                a = leaf.data
                while isinstance(a.base, np.ndarray):
                    a = a.base
                params.add(id(a))
            tracer.graph["tensor.nodes"][tracer.stage].append(len(nodes))
            tracer.graph["tensor.graph_mb"][tracer.stage].append(
                _owner_bytes(arrays, params) / 1e6)
            return out

        return probed

    # -- results --------------------------------------------------------------

    def per_layer(self, rounds: int) -> dict[str, float]:
        """Per-round figures for every PER_LAYER metric (0 where a layer is idle)."""
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        child_ns = [0] * len(self.spans)
        for name, stage, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, stage, start, end, parent) in enumerate(self.spans):
            calls[(stage, name)] += 1
            self_ns[(stage, name)] += end - start - child_ns[i]
        out = {}
        for stage in STAGES:
            for base, (layer, stat) in _BASE_METRICS.items():
                if stat == "calls":
                    value = calls[(stage, layer)] / rounds
                elif stat == "self":
                    value = self_ns[(stage, layer)] / 1e9 / rounds
                else:
                    values = self.graph[layer][stage]
                    value = float(np.mean(values)) if values else 0.0
                out[f"{stage}.{base}"] = value
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "stage", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, f)
