"""Outside-in tracing: spans recorded around calls into clta's public functions.

Nothing inside ``src/clta`` knows about tracing.  ``Tracer.install`` replaces
each traced function in every ``clta`` module namespace that binds it (so a
call such as ``teacher_forward(...)`` inside ``clta.harness`` resolves to the
wrapper), and each traced method on its class.  ``Tracer.restore`` puts every
original object back.  Spans live in memory until the run writes them out.

A span is ``(id, parent_id, name, start, end, thread)``.  Ids are taken when
a call starts, so a parent's id is always lower than its children's; a
parent is the innermost open span of the same thread (-1 for a root).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

# Helpers in clta.autodiff that are not graph primitives.
_NOT_PRIMITIVES = {"grad_enabled", "no_grad", "finite_difference_oracle", "zero_grads"}
_LAYER_KINDS = ("Dense", "Conv2d", "BatchNorm", "ReLU", "GlobalAvgPool")
OP_PREFIX = "autodiff.op."
STEP = "harness.step"

# (defining module, function name, span name)
_FUNCTIONS = (
    ("clta.harness", "run_stream", "harness.run_stream"),
    ("clta.harness", "train_task", "harness.train_task"),
    ("clta.harness", "sgd_step", "harness.sgd_step"),
    ("clta.layers", "snapshot_model", "layers.snapshot"),
    ("clta.distill", "teacher_forward", "distill.teacher_forward"),
    ("clta.distill", "global_kd_loss", "distill.kd_loss"),
    ("clta.distill", "taskwise_kd_loss", "distill.kd_loss"),
    ("clta.distill", "multiclass_kd_loss", "distill.kd_loss"),
    ("clta.distill", "auxiliary_kd_loss", "distill.kd_loss"),
    ("clta.distill", "continuous_teacher_step", "distill.teacher_step"),
    ("clta.metrics", "evaluate_task_agnostic", "metrics.eval"),
    ("clta.metrics", "bn_stats_kld", "metrics.bn_kld"),
    ("clta.data", "synthetic_stream", "data.stream"),
    ("clta.config", "load_config", "config.load"),
    ("clta.experiment", "run_experiment", "experiment.run_experiment"),
    ("clta.experiment", "run_seed", "experiment.run_seed"),
    ("clta.experiment", "write_results", "experiment.write"),
)


def autodiff_primitives() -> list[str]:
    """Public graph primitives of clta.autodiff, found by inspection so a new
    fused op is counted without a change here."""
    ad = sys.modules["clta.autodiff"]
    return sorted(
        name for name, obj in vars(ad).items()
        if inspect.isfunction(obj) and obj.__module__ == ad.__name__
        and not name.startswith("_") and name not in _NOT_PRIMITIVES
    )


def namespace_snapshot() -> dict:
    """Every binding in every clta module and traced class, by identity."""
    snap = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "clta" or mod_name.startswith("clta."):
            for attr, obj in vars(mod).items():
                snap[(mod_name, attr)] = obj
    layers = sys.modules["clta.layers"]
    for cls in [getattr(layers, k) for k in _LAYER_KINDS] + [sys.modules["clta.autodiff"].Tensor]:
        for attr, obj in vars(cls).items():
            snap[(cls.__qualname__, attr)] = obj
    return snap


def changed_bindings(before: dict, after: dict) -> list:
    """Bindings of ``before`` that ``after`` lacks or binds to another object.

    New keys are ignored: ``copy.deepcopy`` caches ``__slotnames__`` on a
    class the first time it copies one.
    """
    return sorted(k for k, obj in before.items() if k not in after or after[k] is not obj)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple] = []

    # -- recording ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        return stack, sid, parent, self.clock()

    def _close(self, stack, sid, parent, name, start) -> None:
        end = self.clock()
        stack.pop()
        self.spans.append((sid, parent, name, start, end, threading.get_ident()))

    def call(self, fn, name):
        """A wrapper around ``fn`` that records one span per call.  ``name``
        may be a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            stack, sid, parent, start = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(stack, sid, parent, label, start)

        return traced

    def batches(self, fn):
        """Wrap a batch generator: each span covers the consumer's loop body
        for one batch, which is one training step."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                stack, sid, parent, start = tracer._open()
                try:
                    yield item
                finally:
                    tracer._close(stack, sid, parent, STEP, start)

        return traced

    # -- installing ---------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "clta" and not mod_name.startswith("clta."):
                continue
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper) -> None:
        self._patched.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = sys.modules
        for mod_name, attr, span in _FUNCTIONS:
            fn = getattr(mods[mod_name], attr)
            self._replace_everywhere(fn, self.call(fn, span))
        iter_batches = mods["clta.harness"].iter_batches
        self._replace_everywhere(iter_batches, self.batches(iter_batches))
        ad = mods["clta.autodiff"]
        for op in autodiff_primitives():
            fn = getattr(ad, op)
            self._replace_everywhere(fn, self.call(fn, OP_PREFIX + op))
        self._replace_method(ad.Tensor, "backward",
                             self.call(vars(ad.Tensor)["backward"], "autodiff.backward"))
        for kind in _LAYER_KINDS:
            cls = getattr(mods["clta.layers"], kind)
            self._replace_method(cls, "forward",
                                 self.call(vars(cls)["forward"], _layer_namer(kind)))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _layer_namer(kind: str):
    def name(args, kwargs):
        mode = kwargs["mode"] if "mode" in kwargs else args[2]
        return f"layers.{kind}.{mode.value}"
    return name


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for sid, parent, _name, start, end, _thread in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _thread in spans:
        inside = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        out[sid] = (end - start) - _covered([iv for iv in inside if iv[1] > iv[0]])
    return out


def in_step(spans) -> set:
    """Ids of spans that run inside a training step (the step spans excluded)."""
    names = {s[0]: s[2] for s in spans}
    inside: set[int] = set()
    for sid, parent, *_rest in sorted(spans):
        if parent >= 0 and (names.get(parent) == STEP or parent in inside):
            inside.add(sid)
    return inside
