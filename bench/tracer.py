"""In-memory span tracer that the benchmark wraps around mlf's layer entry points.

Only the traced run installs it. Each wrapped call records a span: the id of
the benchmark operation it belongs to, the phase, its name, start, end, self
time and the name of the span that caused it. A span's self time is its
duration minus that of its direct child spans. Tape nodes are counted, and
their vector-Jacobian products timed, under the innermost span open when the
node was created, by wrapping `autograd._node`.

Spans stay in memory; `table()` folds them into one row per (phase, span)
when the run ends.

An entry point that is gone (renamed, inlined or deleted) raises
`LayerMapError` at installation: a layer that reads zero would show as a gain.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Layer name -> the mlf entry points ("module:qualname") that open its span.
# A refactor that moves an entry point updates this map in the same change.
LAYERS = {
    "data.gather": ["mlf.data:gather_batch"],
    "patching.embed": ["mlf.patching:make_patches", "mlf.patching:embed"],
    "squeeze.enc": ["mlf.squeeze:PatchEncoder.__call__"],
    "squeeze.dec": ["mlf.squeeze:PeriodDecoder.__call__"],
    "squeeze.recon_loss": ["mlf.squeeze:reconstruction_loss"],
    "encoder.block": ["mlf.encoder:EncoderBlock.__call__"],
    "encoder.spp": ["mlf.encoder:SppHead.__call__"],
    "encoder.irf": ["mlf.encoder:irf_filter"],
    "lwi.weights": ["mlf.lwi:WeightIntegrator.__call__"],
    "lwi.integrate": ["mlf.lwi:integrate", "mlf.lwi:integrate_plain"],
    "model.loss": ["mlf.model:mlf_loss"],
}

# Spans that are not layers but bound them: the whole forward pass, and the
# work done outside the model.
OTHER_SPANS = {
    "model.forward": ["mlf.model:MlfModel.forward"],
    "autograd.backward": ["mlf.autograd:backward"],
    "optim.adam": ["mlf.optim:Adam.step"],
    "checkpoint.save": ["mlf.checkpoint:save_checkpoint"],
    "checkpoint.load": ["mlf.checkpoint:load_checkpoint"],
    "metrics.compute": ["mlf.metrics:compute_metrics"],
}


class LayerMapError(RuntimeError):
    """An entry point of LAYERS or OTHER_SPANS is gone, or a layer never ran."""


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._enter(self.name)

    def __exit__(self, *exc):
        self.tracer._exit()


class Tracer:
    def __init__(self):
        self.phase = "-"
        # (op, phase, name, start, end, self seconds, parent name or None)
        self.spans: list[tuple] = []
        self.nodes: dict[tuple[str, str], int] = defaultdict(int)
        self.bwd_s: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[list] = []  # [name, start, child seconds]
        self._op = 0
        self._undo: list = []

    # -- spans ----------------------------------------------------------------

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def _enter(self, name: str) -> None:
        if not self._stack:
            self._op += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        duration = end - start
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        self.spans.append((self._op, self.phase, name, start, end, duration - child, parent))

    def _wrap(self, fn, name: str):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        traced.__wrapped__ = fn
        return traced

    def _wrap_node(self, node_fn):
        nodes, bwd_s, stack = self.nodes, self.bwd_s, self._stack
        clock = time.perf_counter

        def traced_node(data, parents, vjp, op):
            out = node_fn(data, parents, vjp, op)
            if out._vjp is not None:
                key = (self.phase, stack[-1][0] if stack else "-")
                nodes[key] += 1
                inner = out._vjp

                def timed_vjp(g):
                    t0 = clock()
                    grads = inner(g)
                    bwd_s[key] += clock() - t0
                    return grads

                out._vjp = timed_vjp
            return out

        return traced_node

    # -- installation -----------------------------------------------------------

    @contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    @contextmanager
    def suspended(self):
        """Take the wrappers out for the body, so it runs as if untraced."""
        self._uninstall()
        try:
            yield
        finally:
            self._install()

    def _install(self) -> None:
        missing = []
        for name, targets in {**LAYERS, **OTHER_SPANS}.items():
            for target in targets:
                if not self._patch(target, lambda fn, name=name: self._wrap(fn, name)):
                    missing.append(target)
        if not self._patch("mlf.autograd:_node", self._wrap_node):
            missing.append("mlf.autograd:_node")
        if missing:
            self._uninstall()
            raise LayerMapError(f"entry points not found, update bench/tracer.py: {', '.join(missing)}")

    def _uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def _patch(self, target: str, make) -> bool:
        """Wrap one entry point; False if it does not exist."""
        module_name, qualname = target.split(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                return False
            setattr(owner, attr, make(original))
            self._undo.append(lambda: setattr(owner, attr, original))
            return True
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapped = make(original)
        # Rebind every mlf module that imported the function by name.
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "mlf":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append(lambda mod=mod, key=key: setattr(mod, key, original))
        return True

    # -- results ----------------------------------------------------------------

    def table(self) -> dict[tuple[str, str], dict]:
        """Per (phase, span): calls, self and total ms, tape nodes, vjp ms."""
        rows: dict[tuple[str, str], dict] = defaultdict(
            lambda: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0, "nodes": 0, "bwd_ms": 0.0}
        )
        for _op, phase, name, start, end, self_s, _parent in self.spans:
            row = rows[(phase, name)]
            row["calls"] += 1
            row["self_ms"] += self_s * 1e3
            row["total_ms"] += (end - start) * 1e3
        for key, count in self.nodes.items():
            rows[key]["nodes"] += count
        for key, seconds in self.bwd_s.items():
            rows[key]["bwd_ms"] += seconds * 1e3
        return dict(rows)
