"""One workload, end to end: set-up, then a timed run sliced in with its
traced and in-core replays.

All in this one process and on one compute thread:

1. **Set-up** of one engine per dataset over a new backing file, through
   its first ``loglikelihood()``.
2. **Timed run**, untraced: ops in a closed loop for ``seconds``, cut into
   ``SLICES`` equal slices that each end with a write-behind drain (see
   :class:`Loop`). Gives
   the end-to-end metrics; ``peak_rss_mb`` is read after the first slice,
   before the replays' engines exist.
3. After each timed slice, its ops are replayed twice on engines of their
   own: **traced**, with the layer wrappers of :mod:`plfbench.tracing`
   installed for the slice (the per-layer metrics), and **in-core**
   (``fraction=1.0``, no backing). Then throwaway engines are set up and
   timed until ``SETUP_SAMPLE_S`` has been sampled; ``setup_s`` is the
   median of all these samples.

The timed seconds and the set-up samples are thus spread over the whole
life of the process, which averages out the host's speed drift: on a
shared 2-core host a fixed CPU loop drifts by several percent over seconds.

The correctness gate: every op result and each engine's final lnL are
bit-identical across the three runs, the demand counters of the timed and
traced runs are equal, and no op raised.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field

from plfbench import sysinfo, tracing
from plfbench.workloads import (
    WORKLOADS,
    Workload,
    backing_path,
    build_engine,
    describe,
    make_inputs,
    next_pass,
    run_op,
)

MIB = 1024.0 * 1024.0
#: Slices of the timed phase (see the module docstring).
SLICES = 10
#: Seconds of set-up sampled after each slice (at least one engine).
SETUP_SAMPLE_S = 0.1

#: Demand counters that must agree between the untraced and traced runs.
PARITY_COUNTERS = ("requests", "hits", "misses", "reads", "read_skips", "writes")

#: name -> unit, in the order printed. ``fail_rate`` is printed after them
#: and carried by the result's ``attempted``/``failed`` keys.
END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Span names whose ``<name>.s`` self time is reported (every wrapped name).
SPAN_NAMES = sorted({t[0] for t in tracing.TARGETS})

PER_LAYER = {
    "kernels.update_clv.calls": "count",
    "kernels.update_clv.s": "s",
    "kernels.update_clv.gb_per_s": "computed-GB/s",
    "kernels.propagate_inner.s": "s",
    "kernels.rescale_clv.s": "s",
    "kernels.rescale_clv.sites": "count",
    "kernels.edge_site_likelihoods.s": "s",
    "kernels.branch_sumtable.s": "s",
    "kernels.branch_lnl_and_derivatives.calls": "count",
    "kernels.branch_lnl_and_derivatives.s": "s",
    "branch_opt.optimize_branch.calls": "count",
    "branch_opt.optimize_branch.s": "s",
    "branch_opt.nr.s": "s",
    "branch_opt.nr_iters": "count",
    "branch_opt.nr_iters_per_branch": "iters/branch",
    "engine.plan.calls": "count",
    "engine.plan.s": "s",
    "engine.plan.steps": "count",
    "engine.execute_plan.s": "s",
    "engine.edge_loglikelihood.s": "s",
    "engine.topology.s": "s",
    "models.transition_matrices.calls": "count",
    "models.transition_matrices.s": "s",
    "spr.candidates": "count",
    "spr.moves_applied": "count",
    "spr.s": "s",
    "vecstore.get.calls": "count",
    "vecstore.get.s": "s",
    "vecstore.get.p50_us": "us",
    "vecstore.get.p99_us": "us",
    "vecstore.miss_rate": "ratio",
    "vecstore.read_rate": "ratio",
    "vecstore.read_skip_ratio": "ratio",
    "vecstore.evictions": "count",
    "vecstore.ram_mb": "MiB",
    "vecstore.drain.s": "s",
    "writebehind.drained": "count",
    "writebehind.coalesced": "count",
    "writebehind.stalls": "count",
    "writebehind.read_hits": "count",
    "backing.read.calls": "count",
    "backing.read.s": "s",
    "backing.write.calls": "count",
    "backing.write.s": "s",
    "backing.read_mb_per_s": "MiB/s",
    "backing.write_mb_per_s": "MiB/s",
    "backing.flush.s": "s",
    "backing.device_read_bytes": "bytes",
    "backing.device_write_bytes": "bytes",
    "compress.compress.calls": "count",
    "compress.compress.s": "s",
    "compress.decompress.calls": "count",
    "compress.decompress.s": "s",
    "compress.ratio": "ratio",
    "compress.stored_mb_written": "MiB",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
    "trace.spans": "count",
    "proc.fds_delta": "count",
    "proc.threads_delta": "count",
    "proc.children_delta": "count",
}

#: Per-layer metrics that need a wrapped span name (absent if it is gone).
_NEEDS = {
    "kernels.update_clv.gb_per_s": "kernels.update_clv",
    "kernels.rescale_clv.sites": "kernels.rescale_clv",
    "branch_opt.nr_iters": "branch_opt.nr",
    "branch_opt.nr_iters_per_branch": "branch_opt.nr",
    "engine.plan.steps": "engine.plan",
    "spr.candidates": "spr",
    "spr.moves_applied": "spr",
    "vecstore.get.p50_us": "vecstore.get",
    "vecstore.get.p99_us": "vecstore.get",
    "backing.read_mb_per_s": "backing.read",
    "backing.write_mb_per_s": "backing.write",
    "compress.ratio": "compress.compress",
    "compress.stored_mb_written": "compress.compress",
}


_STAT_FIELDS = ("requests", "hits", "misses", "reads", "read_skips", "writes",
                "write_skips", "bytes_read", "bytes_written", "writeback_writes",
                "writeback_bytes", "writeback_stalls", "writeback_read_hits")


@dataclass
class Run:
    """What one set of engines did over all of its slices."""

    args: list = field(default_factory=list)     # (engine index, op argument)
    results: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    wall: float = 0.0
    error: str | None = None
    stats: dict = field(default_factory=dict)    # IoStats deltas, all engines
    device: dict = field(default_factory=dict)   # /proc/self/io deltas
    final_lnl: list = field(default_factory=list)   # per engine
    counters: list = field(default_factory=list)    # per engine

    @property
    def attempted(self) -> int:
        return len(self.results) + (self.error is not None)


def _turns(wl: Workload, engines):
    """Engines take turns of one op (``turn="op"``) or one whole pass; each
    walks its own passes, taken from its tree when its previous pass ends.

    With one-op turns engine ``i`` of ``K`` starts its first pass rotated
    ``i/K`` of the way round, so the ops a run reaches are spread over the
    whole pass however many it reaches. Whole-pass turns keep one
    write-behind thread busy at a time."""
    k = len(engines)
    streams = [_ops(wl, e, i / k) for i, e in enumerate(engines)]
    for j in itertools.count():
        i = j % k
        if wl.turn == "op":
            yield i, next(streams[i])
        else:
            for arg in next_pass(wl, engines[i]):
                yield i, arg


def _ops(wl: Workload, engine, rotation: float):
    first = next_pass(wl, engine)
    cut = round(rotation * len(first))
    yield from first[cut:] + first[:cut]
    while True:
        yield from next_pass(wl, engine)


class Loop:
    """A closed loop of ops over one set of engines, run in slices.

    Each slice ends with a write-behind drain inside its wall time, so no
    work of a slice spills into what runs between slices. ``smooth_zlib``
    keeps the writer near saturation: the queued backlog is work that an
    unbroken run would also have to wait for."""

    def __init__(self, wl: Workload, engines: list,
                 rec: tracing.Recorder | None = None) -> None:
        self.wl, self.engines, self.rec = wl, engines, rec
        self.run = Run(device={"read_bytes": 0, "write_bytes": 0})
        for e in engines:
            e.store.drain()     # set-up write-backs land before the first slice
            e.stats.snapshot("ops")

    def slice(self, source, seconds: float | None = None) -> list:
        """Ops from ``source`` until it ends or ``seconds`` pass; returns the
        (engine, argument) pairs run. Does nothing once an op has raised."""
        run, rec, clock = self.run, self.rec, time.perf_counter
        if run.error is not None:
            return []
        first = len(run.args)
        io0 = sysinfo.device_io()
        if rec is not None:
            rec.enabled = True
        start = clock()
        deadline = None if seconds is None else start + seconds
        try:
            for i, arg in source:
                if rec is not None:
                    rec.op = len(run.results)
                t0 = clock()
                out = run_op(self.wl, self.engines[i], arg)
                run.latencies.append(clock() - t0)
                run.args.append((i, arg))
                run.results.append(out)
                if deadline is not None and clock() >= deadline:
                    break
            if rec is not None:
                rec.op = len(run.results)
            for e in self.engines:
                e.store.drain()
        except Exception:   # an op that raises is a failed op, not a crash
            run.error = traceback.format_exc()
        run.wall += clock() - start
        if rec is not None:
            rec.enabled, rec.op = False, -1
        io1 = sysinfo.device_io()
        for k in run.device:
            run.device[k] += io1[k] - io0[k]
        return run.args[first:]

    def finish(self) -> Run:
        """Store deltas over all slices, then each engine's final lnL and
        demand counters."""
        run = self.run
        deltas = [e.stats.delta("ops") for e in self.engines]
        run.stats = {k: sum(getattr(d, k) for d in deltas) for k in _STAT_FIELDS}
        run.stats["writeback_enabled"] = self.engines[0].stats.writeback_enabled
        if run.error is None:
            try:
                for e in self.engines:
                    run.final_lnl.append(e.loglikelihood())
                    run.counters.append({k: getattr(e.stats, k)
                                         for k in PARITY_COUNTERS})
            except Exception:
                run.error = traceback.format_exc()
        return run


def _close_all(engines: list, flush: bool) -> None:
    """Close every engine, after a durability barrier (write-backs plus
    fsync) if ``flush``; the first error is re-raised after all are closed."""
    error = None
    for e in engines:
        try:
            if flush:
                e.store.flush()
        except Exception as exc:
            error = error or exc
        finally:
            e.close()
    if error is not None:
        raise error


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def check(timed: Run, traced: Run, incore: Run) -> list[str]:
    """The correctness gate; returns the failures (empty means correct)."""
    failures = [f"{label} run raised:\n{run.error}"
                for label, run in (("timed", timed), ("traced", traced),
                                   ("in-core", incore))
                if run.error is not None]
    if failures:
        return failures
    ref = _bits(incore.results + incore.final_lnl)
    for label, run in (("timed", timed), ("traced", traced)):
        got = _bits(run.results + run.final_lnl)
        if got != ref:
            first = next((k for k, (a, b) in enumerate(zip(got, ref)) if a != b),
                         min(len(got), len(ref)))
            failures.append(f"{label} run: result {first} of {len(ref)} "
                            "differs from in-core")
    if timed.counters != traced.counters:
        failures.append(f"demand counters differ: untraced {timed.counters} "
                        f"vs traced {traced.counters}")
    return failures


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it: the 11th largest
    latency, and its percentile ``100·(n-10)/n``."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def _percentile(xs: list[float], q: float) -> float:
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))] if xs else 0.0


def layer_metrics(rec: tracing.Recorder, traced: Run, untraced_wall: float,
                  ram_bytes: int, proc: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the traced run, plus the trace bookkeeping."""
    spans = rec.spans
    window = [s for s in spans if s.op >= 0]
    selfs = tracing.self_times(window)
    compute = rec.compute_tid
    self_compute = dict.fromkeys(SPAN_NAMES, 0.0)
    self_other = dict.fromkeys(SPAN_NAMES, 0.0)
    incl = dict.fromkeys(SPAN_NAMES, 0.0)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    get_lat = []
    for s in window:
        target = self_compute if s.tid == compute else self_other
        target[s.name] += selfs[s.sid]
        incl[s.name] += s.dur
        calls[s.name] += 1
        if s.name == "vecstore.get":
            get_lat.append(s.dur)
    flush_s = sum(s.dur for s in spans if s.name == "backing.flush")
    covered = tracing.covered([s for s in window if s.tid == compute])
    c, st = rec.counts, traced.stats

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{name}.s": self_compute[name] + self_other[name] for name in SPAN_NAMES}
    m["backing.flush.s"] = flush_s
    for name in ("kernels.update_clv", "kernels.branch_lnl_and_derivatives",
                 "branch_opt.optimize_branch", "engine.plan",
                 "models.transition_matrices", "vecstore.get", "backing.read",
                 "backing.write", "compress.compress", "compress.decompress"):
        m[f"{name}.calls"] = calls[name]
    physical_writes = (st["writeback_writes"] if st["writeback_enabled"]
                       else st["writes"])
    m.update({
        "kernels.update_clv.gb_per_s": ratio(c["kernels.update_clv.bytes"] / 1e9,
                                             incl["kernels.update_clv"]),
        "kernels.rescale_clv.sites": c["kernels.rescale_clv.sites"],
        "branch_opt.nr_iters": c["branch_opt.nr_iters"],
        "branch_opt.nr_iters_per_branch": ratio(c["branch_opt.nr_iters"],
                                                calls["branch_opt.nr"]),
        "engine.plan.steps": c["engine.plan.steps"],
        "spr.candidates": c["spr.candidates"],
        "spr.moves_applied": c["spr.moves_applied"],
        "vecstore.get.p50_us": _percentile(get_lat, 0.50) * 1e6,
        "vecstore.get.p99_us": _percentile(get_lat, 0.99) * 1e6,
        "vecstore.miss_rate": ratio(st["misses"], st["requests"]),
        "vecstore.read_rate": ratio(st["reads"], st["requests"]),
        "vecstore.read_skip_ratio": ratio(st["read_skips"], st["misses"]),
        "vecstore.evictions": st["writes"] + st["write_skips"],
        "vecstore.ram_mb": ram_bytes / MIB,
        "writebehind.drained": st["writeback_writes"],
        "writebehind.coalesced": (st["writes"] - st["writeback_writes"]
                                  if st["writeback_enabled"] else 0),
        "writebehind.stalls": st["writeback_stalls"],
        "writebehind.read_hits": st["writeback_read_hits"],
        "backing.read_mb_per_s": ratio(c["backing.read.bytes"] / MIB,
                                       incl["backing.read"]),
        "backing.write_mb_per_s": ratio(c["backing.write.bytes"] / MIB,
                                        incl["backing.write"]),
        "backing.device_read_bytes": traced.device["read_bytes"],
        "backing.device_write_bytes": traced.device["write_bytes"],
        "compress.ratio": (ratio(c["compress.compress.in_bytes"],
                                 c["compress.compress.out_bytes"])
                           if calls["compress.compress"] else 1.0),
        "compress.stored_mb_written": c["compress.compress.out_bytes"] / MIB,
        "trace.overhead_frac": traced.wall / untraced_wall - 1.0,
        "trace.unattributed_frac": (traced.wall - covered) / traced.wall,
        "trace.spans": len(window),
        "proc.fds_delta": proc["fds"],
        "proc.threads_delta": proc["threads"],
        "proc.children_delta": proc["children"],
    })
    absent = sorted(
        k for k in PER_LAYER
        if (k.endswith((".s", ".calls")) and k.rsplit(".", 1)[0] in SPAN_NAMES
            and k.rsplit(".", 1)[0] not in rec.installed)
        or (k in _NEEDS and _NEEDS[k] not in rec.installed))
    metrics = {k: m[k] for k in PER_LAYER if k not in absent}
    trace_detail = {
        "wall_s": traced.wall,
        "covered_s": covered,
        "compute_self_s": self_compute,
        "other_thread_busy_s": self_other,
        "nesting_problems": tracing.check_nesting(spans)[:5],
        "absent_metrics": absent,
        "absent_targets": rec.absent,
        "backing_read_bytes": c["backing.read.bytes"],
        "backing_write_bytes": c["backing.write.bytes"],
        "physical_writes": physical_writes,
    }
    return metrics, trace_detail


def honest_io(run: Run) -> dict:
    """Logical backing bytes beside what the block layer saw."""
    st = run.stats
    logical_read = st["bytes_read"]
    logical_write = (st["writeback_bytes"] if st["writeback_enabled"]
                     else st["bytes_written"])
    dev_r, dev_w = run.device["read_bytes"], run.device["write_bytes"]
    return {
        "logical_read_bytes": logical_read,
        "logical_write_bytes": logical_write,
        "device_read_bytes": dev_r,
        "device_write_bytes": dev_w,
        "reads_served_from_page_cache": logical_read > 0 and dev_r < logical_read / 2,
        "note": ("device_* are /proc/self/io read_bytes/write_bytes deltas; "
                 "write_bytes counts page-cache pages dirtied, which the kernel "
                 "writes to the device later"),
    }


def _engines(wl: Workload, inputs: list, workdir: str | None, tag: str) -> list:
    """One engine per dataset, each after its first ``loglikelihood()``:
    over new backing files in ``workdir``, or in-core if it is ``None``."""
    engines = []
    try:
        for i, inp in enumerate(inputs):
            path = None if workdir is None else backing_path(workdir, f"{tag}{i}")
            engines.append(build_engine(wl, inp, path))
            engines[-1].loglikelihood()
    except BaseException:
        _close_all(engines, flush=False)
        raise
    return engines


def _sample_setups(wl: Workload, inputs: list, workdir: str, first: int) -> list[float]:
    """Set-up times of throwaway engines, datasets ``first``, ``first+1``, …
    in turn, each from construction through its first ``loglikelihood()``
    over a new backing file, until ``SETUP_SAMPLE_S`` has been sampled."""
    clock = time.perf_counter
    samples: list[float] = []
    while sum(samples) < SETUP_SAMPLE_S:
        for entry in os.listdir(workdir):   # a file that exists is reattached
            os.remove(os.path.join(workdir, entry))
        inp = inputs[(first + len(samples)) % len(inputs)]
        t0 = clock()
        engine = build_engine(wl, inp, backing_path(workdir, "setup"))
        try:
            engine.loglikelihood()
            samples.append(clock() - t0)
        finally:
            engine.close()
    return samples


def _close_traced(rec: tracing.Recorder, engines: list) -> None:
    with rec:
        rec.enabled = True      # the teardown flush is traced too
        _close_all(engines, flush=True)


def run_workload(workload: str | Workload, seed: int, seconds: float,
                 root: str) -> dict:
    """Run one workload (a name, or a :class:`Workload` such as a shrunken
    one for tests); returns the full report (see :mod:`plfbench.run`).
    Backing files live in a temporary directory under ``root``."""
    wl = WORKLOADS[workload] if isinstance(workload, str) else workload
    name = wl.name
    proc0 = sysinfo.proc_counts()
    parent = os.path.join(root, ".plfbench_work")
    os.makedirs(parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=parent)
    setup_dir = os.path.join(workdir, "setup")
    os.mkdir(setup_dir)
    rec = tracing.Recorder()
    setups: list[float] = []
    try:
        inputs = [make_inputs(wl, seed, i) for i in range(wl.datasets)]
        with contextlib.ExitStack() as closing:     # closes every engine built
            engines = _engines(wl, inputs, workdir, "timed")
            closing.callback(_close_all, engines, True)
            datasets = [describe(wl, inp, e) for inp, e in zip(inputs, engines)]
            ram_bytes = sum(e.store.ram_bytes() for e in engines)
            timed = Loop(wl, engines)
            ops = _turns(wl, engines)
            done = timed.slice(ops, seconds / SLICES)
            # Before the replays' engines exist, which would count in it.
            peak_rss = sysinfo.peak_rss_mib()
            traced_engines = _engines(wl, inputs, workdir, "traced")
            closing.callback(_close_traced, rec, traced_engines)
            incore_engines = _engines(wl, inputs, None, "incore")
            closing.callback(_close_all, incore_engines, False)
            traced = Loop(wl, traced_engines, rec)
            incore = Loop(wl, incore_engines)
            for k in range(SLICES):
                if k:
                    done = timed.slice(ops, seconds / SLICES)
                with rec:
                    traced.slice(iter(done))
                incore.slice(iter(done))
                setups += _sample_setups(wl, inputs, setup_dir, len(setups))
            timed, traced, incore = timed.finish(), traced.finish(), incore.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(parent):
            os.rmdir(parent)
    proc1 = sysinfo.proc_counts()
    proc = {k: proc1[k] - proc0[k] for k in proc0}

    failures = check(timed, traced, incore)
    attempted = max(1, timed.attempted)
    failed = attempted if failures else 0
    tail_ms, tail_pct = tail(timed.latencies) if timed.latencies else (0.0, 0.0)
    lat = timed.latencies or [0.0]
    end_to_end = {
        "ops_per_s": len(timed.results) / timed.wall,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_ms * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
    }
    layers, trace_detail = layer_metrics(rec, traced, timed.wall, ram_bytes, proc)
    return {
        "workload": name,
        "seed": seed,
        "op": wl.op,
        "why": wl.why,
        "correct": not failures,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "detail": {
            "datasets": datasets,
            "store": {"engines": wl.datasets, "fraction": wl.fraction,
                      "layout": "whole", "policy": "lru",
                      "backing": ("CompressedFileBackingStore(ZlibCodec(6))"
                                  if wl.codec else "FileBackingStore"),
                      "writeback_depth": wl.writeback_depth, "io_threads": 1},
            "ops": len(timed.results),
            "wall_s": timed.wall,
            "op_tail_percentile": tail_pct,
            "op_tail_samples": len(timed.latencies),
            "setup_s_all": setups,
            "final_lnl": timed.final_lnl,
            "counters": timed.counters,
            "io_untraced": honest_io(timed),
            "io_traced": honest_io(traced),
            "proc_delta": proc,
            "trace": trace_detail,
        },
    }
