"""Spans recorded from outside the program, around each layer's public calls.

The traced run replaces the public functions and methods listed in
:data:`TARGETS` with thin wrappers (module or class attributes, restored on
exit) that record one span per call: name, start, end, parent span, thread
and op id. Spans stay in memory; per-layer metrics are derived from them
after the run. Nothing in ``src/`` is modified or needs to cooperate.

A target that no longer exists (say a later change deletes a kernel) is
skipped and listed in :attr:`Recorder.absent`; the metrics that depend on
it are then reported as absent rather than as zero.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    t0: float
    t1: float
    parent: int   # sid of the enclosing span on the same thread, -1 if none
    tid: int
    op: int       # op id current when the span started, -1 outside the ops

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


# -- result hooks: counts taken where the work happens -------------------------

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _clv_bytes(rec, args, kwargs, out):
    # update_clv(out, P_left, P_right, ...): two operands plus the output,
    # each the shape of ``out`` once the children are propagated.
    rec.add("kernels.update_clv.bytes", 3 * _arg(args, kwargs, 0, "out").nbytes)


def _rescaled(rec, args, kwargs, out):
    rec.add("kernels.rescale_clv.sites", out)


def _nr_iters(rec, args, kwargs, out):
    rec.add("branch_opt.nr_iters", out[1])


def _plan_steps(rec, args, kwargs, out):
    rec.add("engine.plan.steps", len(out.steps))


def _spr_result(rec, args, kwargs, out):
    rec.add("spr.candidates", out.moves_evaluated)
    rec.add("spr.moves_applied", out.moves_applied)


def _read_bytes(rec, args, kwargs, out):
    rec.add("backing.read.bytes", _arg(args, kwargs, 2, "out").nbytes)


def _write_bytes(rec, args, kwargs, out):
    rec.add("backing.write.bytes", _arg(args, kwargs, 2, "data").nbytes)


def _codec_out(kind):
    def hook(rec, args, kwargs, out):
        rec.add(f"compress.{kind}.in_bytes", len(_arg(args, kwargs, 1, "data")))
        rec.add(f"compress.{kind}.out_bytes", len(out))
    return hook


_KERNELS = "repro.phylo.likelihood.kernels"
_BRANCH = "repro.phylo.likelihood.branch_opt"
_ENGINE = "repro.phylo.likelihood.engine"

#: (span name, module, class or None, attribute, result hook)
TARGETS: list[tuple[str, str, str | None, str, Callable | None]] = [
    ("kernels.update_clv", _KERNELS, None, "update_clv", _clv_bytes),
    ("kernels.propagate_inner", _KERNELS, None, "propagate_inner", None),
    ("kernels.rescale_clv", _KERNELS, None, "rescale_clv", _rescaled),
    ("kernels.edge_site_likelihoods", _KERNELS, None, "edge_site_likelihoods", None),
    ("kernels.branch_sumtable", _KERNELS, None, "branch_sumtable", None),
    ("kernels.branch_lnl_and_derivatives", _KERNELS, None,
     "branch_lnl_and_derivatives", None),
    ("branch_opt.optimize_branch", _BRANCH, None, "optimize_branch", None),
    ("branch_opt.nr", _BRANCH, None, "optimize_branch_from_sumtable", _nr_iters),
    ("engine.plan", _ENGINE, "LikelihoodEngine", "plan", _plan_steps),
    ("engine.execute_plan", _ENGINE, "LikelihoodEngine", "execute_plan", None),
    ("engine.edge_loglikelihood", _ENGINE, "LikelihoodEngine",
     "edge_loglikelihood", None),
    ("engine.topology", _ENGINE, "LikelihoodEngine", "apply_spr", None),
    ("engine.topology", _ENGINE, "LikelihoodEngine", "undo_spr", None),
    ("engine.topology", _ENGINE, "LikelihoodEngine", "set_branch_length", None),
    ("models.transition_matrices", "repro.phylo.models.base", "ReversibleModel",
     "transition_matrices", None),
    ("spr", "repro.phylo.search.spr", None, "lazy_spr_round", _spr_result),
    ("vecstore.get", "repro.core.vecstore", "AncestralVectorStore", "get", None),
    ("vecstore.drain", "repro.core.vecstore", "AncestralVectorStore", "drain", None),
    ("backing.read", "repro.core.backing", "FileBackingStore", "read", _read_bytes),
    ("backing.write", "repro.core.backing", "FileBackingStore", "write", _write_bytes),
    ("backing.flush", "repro.core.backing", "FileBackingStore", "flush", None),
    ("backing.read", "repro.core.compress", "CompressedFileBackingStore", "read",
     _read_bytes),
    ("backing.write", "repro.core.compress", "CompressedFileBackingStore", "write",
     _write_bytes),
    ("backing.flush", "repro.core.compress", "CompressedFileBackingStore", "flush",
     None),
    ("compress.compress", "repro.core.compress", "ZlibCodec", "compress",
     _codec_out("compress")),
    ("compress.decompress", "repro.core.compress", "ZlibCodec", "decompress",
     _codec_out("decompress")),
]


class Recorder:
    """In-memory span and count sink; wrappers record only while ``enabled``."""

    def __init__(self) -> None:
        self.records: list[tuple] = []     # raw Span fields, see spans
        self.counts: dict[str, float] = defaultdict(int)
        self.enabled = False
        self.op = -1
        self.absent: list[str] = []        # "module:Class.attr" not found
        self.installed: set[str] = set()   # span names with a live wrapper
        self.compute_tid = threading.get_ident()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def add(self, key: str, value: float) -> None:
        with self._lock:   # hooks run on the writer thread too
            self.counts[key] += value

    def wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        rec, records, local = self, self.records, self._local
        ids, clock, get_ident = self._ids, time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            op = rec.op
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                # plain tuples: cheap, and never tracked by the cyclic GC
                records.append((sid, name, t0, t1, parent, get_ident(), op))
            if hook is not None:
                hook(rec, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        self.absent, self.installed = [], set()
        for name, module, cls, attr, hook in TARGETS:
            try:
                owner = importlib.import_module(module)
            except ModuleNotFoundError:
                owner = None
            if owner is not None and cls is not None:
                owner = getattr(owner, cls, None)
            if owner is None or attr not in vars(owner):
                self.absent.append(f"{module}:{cls + '.' if cls else ''}{attr}")
                continue
            original = vars(owner)[attr]
            self._patched.append((owner, attr, original))
            self.installed.add(name)
            setattr(owner, attr, self.wrap(name, original, hook))

    @property
    def spans(self) -> list[Span]:
        return [Span(*r) for r in self.records]

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.enabled = False
        self.uninstall()


# -- analysis ------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span: its duration minus its children's (same thread)."""
    child = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.dur
    return {s.sid: s.dur - child[s.sid] for s in spans}


def check_nesting(spans: list[Span]) -> list[str]:
    """Violations of proper nesting: a child must lie inside its parent,
    on the parent's thread. Returns human-readable problems (empty if ok)."""
    by_id = {s.sid: s for s in spans}
    problems = []
    for s in spans:
        if s.parent < 0:
            continue
        p = by_id.get(s.parent)
        if p is None:
            problems.append(f"{s.name}#{s.sid}: parent {s.parent} not recorded")
        elif p.tid != s.tid or s.t0 < p.t0 or s.t1 > p.t1:
            problems.append(f"{s.name}#{s.sid} escapes parent {p.name}#{p.sid}")
    return problems


def covered(spans: list[Span]) -> float:
    """Wall time covered by the top-level spans among ``spans`` (one thread)."""
    total = 0.0
    end = float("-inf")
    for s in sorted((s for s in spans if s.parent < 0), key=lambda s: s.t0):
        if s.t1 <= end:
            continue
        total += s.t1 - max(s.t0, end)
        end = s.t1
    return total
