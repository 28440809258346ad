"""The three workloads: generated inputs, the store each runs on, and its op.

Inputs come from ``--seed`` alone. A run holds ``datasets`` independent
datasets, each a Yule tree (``scale=0.1``) and an alignment simulated down
it under GTR+Γ4, and gives each its own engine; the engines take turns of
one op or one whole pass. One tree's shape sets which ops are slow (how
far the next edge is from the last one), so a single tree per run would
make the figures depend on the seed more than on the code. Each engine
receives only its tree and alignment. Every op goes through the public API.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from repro import (
    GTR,
    Alignment,
    CompressedFileBackingStore,
    FileBackingStore,
    LikelihoodEngine,
    RateModel,
    ZlibCodec,
    simulate_alignment,
    yule_tree,
)
from repro.phylo import msa_stats
from repro.phylo.search import spr as spr_module

#: The generating model, also the model the engine evaluates under.
MODEL_RATES = (1.0, 3.0, 0.7, 1.3, 3.5, 1.0)
MODEL_FREQS = (0.3, 0.2, 0.25, 0.25)
GAMMA_ALPHA = 1.0
SPR_RADIUS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    taxa: int
    sites: int
    fraction: float
    codec: bool            # CompressedFileBackingStore(ZlibCodec(6)) if set
    writeback_depth: int
    datasets: int          # independent datasets (engines) per run
    turn: str              # an engine runs one "op" or one "pass", then the next
    op: str                # what one op is
    why: str


WORKLOADS = {
    "fulltrav": Workload(
        "fulltrav", 64, 5000, 0.25, False, 0, 4, "op",
        "engine.full_traversals(1)",
        "paper 4.3 -f z worst-case locality: kernel-bound, write-mostly store"),
    "spr": Workload(
        "spr", 24, 1000, 0.25, False, 0, 66, "op",
        f"lazy_spr_round(radius={SPR_RADIUS}) on one prune point, tree order",
        "paper 4.1-4.2 lazy SPR locality: NR, plan and dispatch bound, mixed reads"),
    "smooth_zlib": Workload(
        "smooth_zlib", 64, 5000, 0.1, True, 8, 8, "pass",
        "engine.optimize_branch(u, v), smooth_all_branches order",
        "smoothing over the zlib tier with write-behind: zlib saturates the writer"),
}


@dataclass
class Inputs:
    tree: object
    alignment: Alignment
    model: GTR
    rates: RateModel
    num_patterns: int


def make_inputs(wl: Workload, seed: int, index: int) -> Inputs:
    """Dataset ``index`` of the run seeded ``seed``."""
    model = GTR(MODEL_RATES, MODEL_FREQS)
    rates = RateModel.gamma(GAMMA_ALPHA, 4)
    tree = yule_tree(wl.taxa, seed=[seed, index, 0], scale=0.1)
    aln = simulate_alignment(tree, model, wl.sites, rates=rates,
                             seed=[seed, index, 1])
    return Inputs(tree, aln, model, rates, aln.compress().num_patterns)


def describe(wl: Workload, inp: Inputs, engine: LikelihoodEngine) -> dict:
    """Dataset descriptor and input fingerprint (taken from a built engine)."""
    aln = inp.alignment
    digest = hashlib.sha256()
    digest.update("\n".join(aln.names).encode())
    digest.update(np.ascontiguousarray(aln.codes).tobytes())
    store = engine.store
    return {
        "taxa": aln.num_taxa,
        "sites": aln.num_sites,
        "patterns": inp.num_patterns,
        "blocks_per_vector": engine.layout.blocks_per_node,
        "gap_fraction": msa_stats.gap_fraction(aln),
        "invariant_fraction": msa_stats.proportion_invariant_sites(aln),
        "clv_bytes": engine.ancestral_vector_bytes(),
        "vectors": engine.num_inner,
        "slots": store.num_slots,
        "store_ram_over_total": store.ram_bytes() / engine.total_ancestral_bytes(),
        "alignment_sha256": digest.hexdigest(),
    }


def fresh_alignment(aln: Alignment) -> Alignment:
    """A copy with no cached pattern compression, so set-up pays for it."""
    return Alignment(list(aln.names), aln.codes, aln.alphabet)


def build_engine(wl: Workload, inp: Inputs, path: str | None) -> LikelihoodEngine:
    """The workload's out-of-core engine over a new backing file at ``path``;
    with ``path=None`` the in-core reference (``fraction=1.0``, no backing)."""
    tree, aln = inp.tree.copy(), fresh_alignment(inp.alignment)
    if path is None:
        return LikelihoodEngine(tree, aln, inp.model, inp.rates, fraction=1.0)
    shape = (inp.num_patterns, inp.rates.num_categories, inp.model.num_states)
    if wl.codec:
        backing = CompressedFileBackingStore(path, tree.num_inner, shape,
                                             codec=ZlibCodec(6))
    else:
        backing = FileBackingStore(path, tree.num_inner, shape)
    return LikelihoodEngine(
        tree, aln, inp.model, inp.rates, fraction=wl.fraction, layout="whole",
        policy="lru", backing=backing, writeback_depth=wl.writeback_depth,
        io_threads=1)


def smoothing_order(tree) -> list[tuple[int, int]]:
    """Edges in the depth-first order ``smooth_all_branches`` visits them."""
    (anchor,) = tree.neighbors(0)
    seen = set()
    stack = [(anchor, 0)]
    order = []
    while stack:
        x, parent = stack.pop()
        key = (min(x, parent), max(x, parent))
        if key in seen:
            continue
        seen.add(key)
        order.append((x, parent))
        if not tree.is_tip(x):
            stack.extend((y, x) for y in tree.neighbors(x) if y != parent)
    return order


def next_pass(wl: Workload, engine: LikelihoodEngine) -> list:
    """The op arguments of one pass, taken from the engine's current tree."""
    tree = engine.tree
    if wl.name == "fulltrav":
        return [None]
    if wl.name == "spr":
        return [(p, s) for p in tree.inner_nodes() for s in tree.neighbors(p)]
    return smoothing_order(tree)


def run_op(wl: Workload, engine: LikelihoodEngine, arg) -> float:
    """One op; returns the value the correctness gate compares bit for bit."""
    if wl.name == "fulltrav":
        return engine.full_traversals(1)
    if wl.name == "spr":
        return spr_module.lazy_spr_round(engine, radius=SPR_RADIUS,
                                         prune_points=[arg]).lnl
    return engine.optimize_branch(*arg)


def backing_path(workdir: str, tag: str) -> str:
    return os.path.join(workdir, f"{tag}.clv")
