"""Outside-in tracer: wraps the public functions and methods of the bedl
modules, records spans in memory, and turns them into per-layer metrics.

Nothing under ``src/`` knows about it. ``Tracer.install`` rebinds every
public function of a traced module, and every other bedl module's global
that refers to the same object (``bedl.train`` imports ``decompose`` by
name, for example); ``Tracer.remove`` puts the originals back.

A span is ``(name, start, end, parent, job)``; ``parent`` is the index of
the enclosing span or -1. Tensor ops also get a span per backward closure
(``tensor.<op>.bwd``), whose parent is the ``Tensor.backward`` span.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

TRACED_MODULES = ("tensor", "layers", "objectives", "train", "uncertainty", "data")

# Tensor ops reported one by one: every primitive that creates tape nodes
# (composites such as clamp and tmean are counted through their parts).
OPS = (
    "matmul", "extract_patches", "add", "sub", "mul", "div", "neg", "square", "sqrt",
    "exp", "log", "relu", "where", "clamp_min", "clamp_max", "normal_cdf", "normal_pdf",
    "exp_scaled_cdf", "logsumexp", "tsum", "stack", "take", "reshape", "digamma", "lgamma",
)

# Spans whose subtree belongs to one phase of a job.
PHASE_ROOTS = {
    "bedl.train.train": "train",
    "bedl.train.evaluate": "eval",
    "bedl.train.evaluate_entropies": "eval",
}


def _public_callables(mod):
    """(owner, attribute name, qualified span name) for each public function
    defined in ``mod`` and each public method of its public classes."""
    out = []
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((mod, name, f"{mod.__name__}.{name}"))
        elif inspect.isclass(obj):
            for mname, meth in vars(obj).items():
                if not mname.startswith("_") and inspect.isfunction(meth):
                    out.append((obj, mname, f"{mod.__name__}.{name}.{mname}"))
    return out


class RssSampler:
    """Samples resident set size from /proc/self/statm every few ms and
    keeps the peak per phase; the phase is set by the job runner."""

    def __init__(self, period_s: float = 0.002):
        self.period_s = period_s
        self.phase: str | None = None
        self.peak_mb: dict[str, float] = defaultdict(float)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._page_mb = os.sysconf("SC_PAGE_SIZE") / 1e6

    def _run(self):
        with open("/proc/self/statm") as fh:
            while not self._stop.wait(self.period_s):
                fh.seek(0)
                rss = int(fh.read().split()[1]) * self._page_mb
                phase = self.phase
                if phase is not None and rss > self.peak_mb[phase]:
                    self.peak_mb[phase] = rss

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


class Tracer:
    def __init__(self, mods: dict):
        self.mods = mods
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.spans: list = []  # (name id, start, end, parent, job)
        self.counts: dict[str, float] = defaultdict(float)  # per-phase counters
        self.tape_nodes: list[int] = []
        self.job = -1
        self.phase: str | None = None
        self._stack = [-1]
        self._patched: list = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _count(self, key: str, value: float) -> None:
        self.counts[f"{self.phase}:{key}"] += value

    def _timed(self, fn, name: str, hook=None):
        nid, spans, stack, clock = self._nid(name), self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.job)
            if hook is not None:
                hook(args, kwargs, out, leaf=len(spans) == idx + 1)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _op_hook(self, op: str):
        tensor_cls = self.mods["tensor"].Tensor

        def hook(args, kwargs, out, leaf):
            if not (leaf and isinstance(out, tensor_cls)):
                return  # composite ops (clamp, tmean) are counted through their parts
            self._count("tensor.op_calls", 1)
            self._count("tensor.out_bytes", out.data.nbytes)
            self._count(f"tensor.{op}.out_bytes", out.data.nbytes)
            if out._backward_fn is not None:
                out._backward_fn = self._timed(out._backward_fn, f"tensor.{op}.bwd")

        return hook

    def _backward_hook_wrapper(self, fn):
        """Counts the tape (every node the reverse sweep visits) before the
        timed backward pass, so the count is not inside the span."""
        timed = self._timed(fn, "bedl.tensor.Tensor.backward")

        def backward(root):
            seen, todo = {id(root)}, [root]
            while todo:
                for p in todo.pop()._parents:
                    if p.requires_grad and id(p) not in seen:
                        seen.add(id(p))
                        todo.append(p)
            self.tape_nodes.append(len(seen))
            return timed(root)

        backward.__wrapped__ = fn
        return backward

    def _relu_hook(self, args, kwargs, out, leaf):
        var = args[0].var.data
        self._count("layers.relu_units", var.size)
        self._count("layers.relu_det_units", np.count_nonzero(var < self.mods["layers"].SIGMA2_MIN))

    def _draws_hook(self, args, kwargs, out, leaf):
        eps = kwargs.get("eps")
        if eps is not None:
            n_samples = eps.shape[0]
        else:
            n_samples = next(a for a in args if hasattr(a, "n_samples")).n_samples
        self._count("objectives.output_draws", n_samples * args[0].mean.shape[0])

    def _save_hook(self, args, kwargs, out, leaf):
        self._count("train.checkpoint_bytes", Path(args[1]).stat().st_size)

    def _decompose(self, fn):
        """decompose with the peak of the bytes numpy allocates inside it."""

        def decompose(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self._count("uncertainty.decompose_bytes", tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return decompose

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        bedl_mods = [m for n, m in sys.modules.items() if n == "bedl" or n.startswith("bedl.")]
        hooks = {
            "bedl.layers.relu_moments": self._relu_hook,
            "bedl.objectives.classification_log_marginal": self._draws_hook,
            "bedl.objectives.classification_kl": self._draws_hook,
            "bedl.train.save_checkpoint": self._save_hook,
        }
        for short in TRACED_MODULES:
            mod = self.mods[short]
            for owner, attr, name in _public_callables(mod):
                orig = getattr(owner, attr)
                if name == "bedl.tensor.Tensor.backward":
                    new = self._backward_hook_wrapper(orig)
                elif name == "bedl.uncertainty.decompose":
                    new = self._timed(self._decompose(orig), name)
                elif owner is mod and short == "tensor" and attr != "constant":
                    new = self._timed(orig, name, self._op_hook(attr))
                else:
                    new = self._timed(orig, name, hooks.get(name))
                self._patched.append((owner, attr, orig))
                setattr(owner, attr, new)
                if owner is mod:  # names imported elsewhere with `from .x import y`
                    for other in bedl_mods:
                        for gname, gval in list(vars(other).items()):
                            if gval is orig and other is not mod:
                                self._patched.append((other, gname, orig))
                                setattr(other, gname, new)

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- reporting ---------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as CSV: name, start_us, end_us, parent, job."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name,start_us,end_us,parent,job\n")
            for nid, s, e, parent, job in self.spans:
                fh.write(f"{self.names[nid]},{(s - t0) * 1e6:.1f},{(e - t0) * 1e6:.1f},{parent},{job}\n")

    def aggregate(self) -> tuple[dict, dict, dict]:
        """Per-phase inclusive time, self time and call count per span name
        (times in ms)."""
        phase_of_name = {self._name_id[n]: p for n, p in PHASE_ROOTS.items() if n in self._name_id}
        incl, self_ms, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        phases: list[str | None] = []
        child_ms = [0.0] * len(self.spans)
        for nid, s, e, parent, _ in self.spans:
            phases.append(phase_of_name.get(nid) or (phases[parent] if parent >= 0 else None))
            if parent >= 0:
                child_ms[parent] += (e - s) * 1e3
        for i, (nid, s, e, parent, _) in enumerate(self.spans):
            key = (phases[i], self.names[nid])
            dur = (e - s) * 1e3
            incl[key] += dur
            self_ms[key] += dur - child_ms[i]
            calls[key] += 1
        return incl, self_ms, calls


def per_layer_metrics(tr: Tracer, rss: RssSampler, n_steps: int, n_jobs: int,
                      train_s: float, overhead_pct: float) -> dict:
    """The per_layer metrics of BENCHMARK.json: per optimizer step unless the
    name says eval/checkpoint/data/proc, which are per job."""
    incl, self_ms, calls = tr.aggregate()
    steps, jobs = max(n_steps, 1), max(n_jobs, 1)

    def t(name, phase="train"):
        return incl[(phase, name)]

    def c(key, phase="train"):
        return tr.counts[f"{phase}:{key}"]

    m = {
        "tensor.tape_nodes": float(np.mean(tr.tape_nodes)) if tr.tape_nodes else 0.0,
        "tensor.op_calls": c("tensor.op_calls") / steps,
        "tensor.backward.ms": t("bedl.tensor.Tensor.backward") / steps,
        "tensor.out_mb": c("tensor.out_bytes") / steps / 1e6,
        "tensor.extract_patches.out_mb": c("tensor.extract_patches.out_bytes") / steps / 1e6,
    }
    for op in OPS:
        m[f"tensor.{op}.calls"] = calls[("train", f"bedl.tensor.{op}")] / steps
        m[f"tensor.{op}.fwd_ms"] = self_ms[("train", f"bedl.tensor.{op}")] / steps
        m[f"tensor.{op}.bwd_ms"] = self_ms[("train", f"tensor.{op}.bwd")] / steps
    forward = t("bedl.layers.MomentNetwork.forward")
    m["layers.forward.ms"] = forward / steps
    for kind in ("input", "dense", "conv2d", "relu"):
        m[f"layers.{kind}_moments.ms"] = t(f"bedl.layers.{kind}_moments") / steps
    units = c("layers.relu_units")
    m["layers.relu_moments.det_share"] = c("layers.relu_det_units") / units if units else 0.0
    m["layers.eval_forward.ms"] = t("bedl.layers.MomentNetwork.forward", "eval") / jobs
    log_marginal = sum(t(f"bedl.objectives.{k}_log_marginal") for k in ("regression", "classification"))
    kl = sum(t(f"bedl.objectives.{k}_kl") for k in ("regression", "classification"))
    pac = t("bedl.objectives.pac_objective")
    backward = t("bedl.tensor.Tensor.backward")
    adam = t("bedl.train.Adam.step")
    m.update({
        "objectives.log_marginal.ms": log_marginal / steps,
        "objectives.kl.ms": kl / steps,
        "objectives.pac.ms": pac / steps,
        "objectives.output_draws": c("objectives.output_draws") / steps,
        "train.adam.ms": adam / steps,
        "train.other.ms": (train_s * 1e3 - forward - log_marginal - kl - pac - backward - adam) / steps,
        "train.checkpoint_save.ms": t("bedl.train.save_checkpoint", None) / jobs,
        "train.checkpoint_load.ms": t("bedl.train.load_checkpoint", None) / jobs,
        "train.checkpoint.bytes": c("train.checkpoint_bytes") / jobs,
        "uncertainty.decompose.ms": t("bedl.uncertainty.decompose", "eval") / jobs,
        "uncertainty.decompose.computed_mb": c("uncertainty.decompose_bytes", "eval") / jobs / 1e6,
        "data.load.ms": sum(t(f"bedl.data.load_{k}", None) for k in ("csv", "idx")) / jobs,
        "data.standardize.ms": t("bedl.data.standardize", None) / jobs,
        "proc.rss_train_mb": rss.peak_mb["train"],
        "proc.rss_eval_mb": rss.peak_mb["eval"],
        "trace.overhead_pct": overhead_pct,
    })
    return m
