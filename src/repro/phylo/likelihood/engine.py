"""The likelihood engine: RAxML's evaluate/newview machinery over any store.

:class:`LikelihoodEngine` owns a tree, an alignment, a substitution model
and a rate model, and computes log-likelihoods by Felsenstein pruning. All
ancestral-vector traffic flows through a single indirection — the paper's
``getxvector()`` — so the same engine runs:

* **in-core** (``fraction=1.0``, the "standard RAxML" configuration),
* **out-of-core** with any slot fraction / replacement policy / backing
  store (the paper's contribution),
* against the **paging simulator** (the Figure-5 "standard with paging"
  baseline) by passing a :class:`~repro.vm.standardstore.PagedStandardStore`.

Correctness contract: for a fixed tree, data and model, the returned
log-likelihood is bit-identical across all of these configurations
(paper §4.1).
"""

from __future__ import annotations

import time
from collections import OrderedDict

import numpy as np

from repro.analysis.race import race_detector
from repro.core.layout import StorageLayout, WholeVectorLayout, make_layout
from repro.core.vecstore import AncestralVectorStore
from repro.errors import LikelihoodError
from repro.phylo.likelihood import kernels
from repro.phylo.likelihood.traversal import (
    OrientationState,
    TraversalPlan,
    plan_edge_traversal,
)
from repro.phylo.models.base import ReversibleModel
from repro.phylo.models.rates import RateModel
from repro.phylo.msa import Alignment
from repro.phylo.tree import Tree


def _valid(view: np.ndarray, span: int) -> np.ndarray:
    """The meaningful rows of a fetched block.

    A ragged last block stores padding past ``span``; kernels must only
    see the live rows. When the block is full-width the view is returned
    untouched — under the whole-vector layout this keeps the exact
    object the store handed out (so the slot-borrow sanitizer still
    guards kernel accesses, and the path is bit-for-bit the pre-layout
    one).
    """
    return view if span == view.shape[0] else view[:span]


class LikelihoodEngine:
    """Compute the PLF on ``tree`` × ``alignment`` under ``model`` + ``rates``.

    Parameters
    ----------
    tree:
        An unrooted binary :class:`Tree`; tip ``i`` corresponds to taxon
        ``tree.names[i]``, which must exist in the alignment.
    alignment:
        The :class:`Alignment` (site patterns are compressed internally).
    model:
        A :class:`ReversibleModel` over the alignment's alphabet size.
    rates:
        A :class:`RateModel`; defaults to Γ4 with α = 1 (the paper's setup).
    store:
        Anything with the vector-store ``get(item, pins, write_only)``
        protocol. If omitted, an :class:`AncestralVectorStore` is built from
        ``fraction`` / ``num_slots`` / ``policy`` / ``backing`` /
        ``read_skipping`` — ``fraction=1.0`` keeps every vector resident.
    layout / block_sites:
        Storage layout for the built store (ignored with an explicit
        ``store``, whose own layout governs): ``"whole"`` (default — one
        paged item per CLV, the paper's design), ``"block"`` (each CLV's
        pattern axis split into site blocks of ``block_sites`` patterns,
        paged independently), or a :class:`~repro.core.layout.StorageLayout`
        instance. Kernels then run blocked over per-block slices; results
        are bit-identical across layouts (§4.1 contract).
    writeback_depth / io_threads:
        Forwarded to the built store: ``writeback_depth > 0`` makes
        evictions asynchronous (write-behind queue drained by
        ``io_threads`` writer threads). Only valid when the engine builds
        its own store.
    prefetch_depth:
        ``> 0`` attaches a :class:`~repro.core.prefetch.ThreadedPrefetcher`
        that is fed each traversal's access sequence (the paper's §5
        prefetch thread); reads overlap the likelihood kernels. Works with
        an explicit ``store`` too, provided it is an
        :class:`AncestralVectorStore`.
    dtype:
        ``float64`` (default) or ``float32`` for the single-precision mode.
    """

    def __init__(
        self,
        tree: Tree,
        alignment: Alignment,
        model: ReversibleModel,
        rates: RateModel | None = None,
        *,
        store=None,
        fraction: float | None = None,
        num_slots: int | None = None,
        layout: str | StorageLayout = "whole",
        block_sites: int | None = None,
        policy="lru",
        backing=None,
        read_skipping: bool = True,
        track_dirty: bool = False,
        poison_skipped_reads: bool = False,
        policy_kwargs: dict | None = None,
        writeback_depth: int = 0,
        io_threads: int = 1,
        prefetch_depth: int = 0,
        dtype=np.float64,
    ) -> None:
        if tree.num_tips < 3:
            raise LikelihoodError("the PLF engine needs at least 3 taxa")
        if alignment.alphabet.num_states != model.num_states:
            raise LikelihoodError(
                f"model has {model.num_states} states but alphabet "
                f"{alignment.alphabet.name} has {alignment.alphabet.num_states}"
            )
        self.tree = tree
        self.alignment = alignment
        self.model = model
        self.rates = rates if rates is not None else RateModel.gamma(1.0, 4)
        self.dtype = np.dtype(dtype)
        self.scaling = kernels.ScalingScheme(self.dtype)

        comp = alignment.compress()
        self.num_patterns = comp.num_patterns
        self.pattern_weights = comp.weights.astype(np.float64)
        pattern_codes = alignment.pattern_codes()
        # Tip i of the tree maps to the alignment row with the same name.
        self._tip_codes = np.empty((tree.num_tips, self.num_patterns), dtype=np.int64)
        for tip in range(tree.num_tips):
            row = alignment.index_of(tree.names[tip])
            self._tip_codes[tip] = pattern_codes[row]
        self._code_matrix = alignment.alphabet.code_matrix().astype(self.dtype)

        C = self.rates.num_categories
        S = model.num_states
        self.clv_shape = (self.num_patterns, C, S)
        self.num_inner = tree.num_inner

        if store is None:
            self.layout = make_layout(layout, self.num_inner, self.clv_shape,
                                      block_sites=block_sites)
            store = AncestralVectorStore(
                layout=self.layout,
                dtype=self.dtype,
                fraction=fraction,
                num_slots=num_slots,
                policy=policy,
                backing=backing,
                read_skipping=read_skipping,
                track_dirty=track_dirty,
                poison_skipped_reads=poison_skipped_reads,
                policy_kwargs=policy_kwargs,
                writeback_depth=writeback_depth,
                io_threads=io_threads,
            )
        elif fraction is not None or num_slots is not None:
            raise LikelihoodError("pass either an explicit store or a geometry, not both")
        elif writeback_depth:
            raise LikelihoodError(
                "writeback_depth configures the built store; with an explicit "
                "store, construct it with writeback_depth yourself"
            )
        elif layout != "whole" or block_sites is not None:
            raise LikelihoodError(
                "layout/block_sites configure the built store; with an "
                "explicit store, construct it over a layout yourself"
            )
        else:
            # The explicit store's own layout governs; stores predating the
            # layout abstraction (e.g. PagedStandardStore) page whole CLVs.
            found = getattr(store, "layout", None)
            if found is None:
                found = WholeVectorLayout(self.num_inner, self.clv_shape)
            elif (found.num_nodes != self.num_inner
                    or found.node_shape != self.clv_shape):
                raise LikelihoodError(
                    f"store layout covers {found.num_nodes} nodes of shape "
                    f"{found.node_shape}; this engine needs {self.num_inner} "
                    f"of {self.clv_shape}"
                )
            self.layout = found
        self.store = store
        self._bind_topological_policy()
        self.prefetcher = None
        if prefetch_depth:
            if not isinstance(store, AncestralVectorStore):
                raise LikelihoodError(
                    "prefetch_depth needs an AncestralVectorStore "
                    f"(got {type(store).__name__})"
                )
            from repro.core.prefetch import ThreadedPrefetcher

            self.prefetcher = ThreadedPrefetcher(store, depth=prefetch_depth)

        # Under REPRO_SANITIZE=race, scale-count/orientation traffic
        # carries happens-before edges (zero cost otherwise — see
        # repro.analysis.race).
        self._race = race_detector()
        self._race_scope = ("" if self._race is None
                            else self._race.new_scope("LikelihoodEngine"))

        # Per-site underflow-scaling counters stay in RAM (like tips, they
        # are small compared to the CLVs themselves — paper §3.1).
        self.scale_counts = np.zeros((self.num_inner, self.num_patterns), dtype=np.int32)
        self.orientation = OrientationState(tree)
        self._root_edge: tuple[int, int] | None = None
        # Transition matrices are tiny relative to CLVs; caching them per
        # exact branch length is free memory-wise and saves eigen work on
        # repeated traversals. Exact float keys keep results bit-identical,
        # and LRU eviction past _P_CACHE_LIMIT keeps long searches with
        # churning branch lengths from degrading to a cold cache.
        self._p_cache: OrderedDict[float, np.ndarray] = OrderedDict()
        # Per-phase timers (observability, default off): when a
        # repro.utils.timing.Stopwatch is attached — normally through
        # repro.obs.Observer — the engine accumulates "plan" / "kernel" /
        # "store_wait" laps. A repro.obs.spans.SpanRecorder additionally
        # captures each lap as a timeline interval, and a
        # repro.obs.metrics.MetricsRegistry receives store-wait latency
        # observations. All purely passive; numerics are unaffected.
        self.timers = None
        self.spans = None
        self.metrics = None

    # -- wiring ---------------------------------------------------------------------

    def _bind_topological_policy(self) -> None:
        """Give a Topological policy its tree-distance provider (§3.3).

        The policy sees *item* ids, so node-level hop distances are mapped
        through the layout: every block of a node inherits that node's
        distance. ``store_item_nodes()`` spans the store's full item space
        (global ids under a shared partitioned store), so the provider is
        total over whatever ids the policy encounters.
        """
        policy = getattr(self.store, "policy", None)
        if (policy is not None and getattr(policy, "name", "") == "topological"
                and getattr(policy, "distance_provider", None) is None):
            n = self.tree.num_tips
            item_nodes = self.layout.store_item_nodes()

            def distances(requested_item: int) -> np.ndarray:
                node = int(item_nodes[requested_item])
                d_nodes = self.tree.hop_distances_from(n + node)[n:]
                return d_nodes[item_nodes]

            policy.distance_provider = distances

    def item(self, node: int) -> int:
        """Dense index of an inner node (tips have no ancestral vector).

        This is the node-space index (the ``scale_counts`` row and, under
        the whole-vector layout, also the store item id); block-granular
        store ids come from ``layout.item_of(self.item(node), block)``.
        """
        if self.tree.is_tip(node):
            raise LikelihoodError(f"tip {node} has no ancestral vector")
        return node - self.tree.num_tips

    def _block_pins(self, nodes, block: int) -> tuple[int, ...]:
        """Item ids pinning block ``block`` of each inner node in ``nodes``.

        Only the *same-numbered* block of the other operands needs to stay
        resident while a kernel runs — per-site independence means block
        ``b`` of a parent touches exactly block ``b`` of its children, so
        the store's ``m >= 3`` floor bounds blocks, not whole vectors.
        """
        layout = self.layout
        return tuple(layout.item_of(self.item(x), block)
                     for x in nodes if not self.tree.is_tip(x))

    @property
    def stats(self):
        """The store's :class:`~repro.core.stats.IoStats`."""
        return self.store.stats

    def default_edge(self) -> tuple[int, int]:
        """The canonical evaluation edge: tip 0 and its attachment node."""
        (nbr,) = self.tree.neighbors(0)
        return (0, nbr)

    # -- transition matrices -----------------------------------------------------------

    _P_CACHE_LIMIT = 8192

    def _P(self, u: int, v: int) -> np.ndarray:
        t = self.tree.branch_length(u, v)
        P = self._p_cache.get(t)
        if P is None:
            P = self.model.transition_matrices(t, self.rates.rates)
            # Always copy before freezing: astype(copy=False) /
            # ascontiguousarray may return the model's own array, and
            # setflags(write=False) would freeze the caller's buffer.
            P = np.array(P, dtype=self.dtype, order="C")
            P.setflags(write=False)
            self._p_cache[t] = P
            if len(self._p_cache) > self._P_CACHE_LIMIT:
                self._p_cache.popitem(last=False)
        else:
            self._p_cache.move_to_end(t)
        return P

    # -- traversal execution ---------------------------------------------------------

    def plan(self, u: int, v: int, full: bool = False) -> TraversalPlan:
        """Plan the CLV recomputations needed to evaluate edge ``(u, v)``."""
        rc = self._race
        if rc is not None:
            rc.read(self._race_scope, "orientation")
        tm, sp = self.timers, self.spans
        if tm is None and sp is None:
            return plan_edge_traversal(self.tree, self.orientation, u, v, full)
        t0 = time.perf_counter()
        out = plan_edge_traversal(self.tree, self.orientation, u, v, full)
        dt = time.perf_counter() - t0
        if tm is not None:
            tm.add("plan", dt)
        if sp is not None:
            sp.complete("plan", t0, dt, {"steps": len(out.steps)})
        return out

    def _timed_get(self, item: int, pins: tuple = (),
                   write_only: bool = False) -> np.ndarray:
        """``store.get`` with the wait charged to the ``store_wait`` phase."""
        tm, sp, mx = self.timers, self.spans, self.metrics
        if tm is None and sp is None and mx is None:
            return self.store.get(item, pins=pins, write_only=write_only)
        t0 = time.perf_counter()
        out = self.store.get(item, pins=pins, write_only=write_only)
        dt = time.perf_counter() - t0
        if tm is not None:
            tm.add("store_wait", dt)
        if mx is not None:
            mx.observe("store_wait_seconds", dt)
        if sp is not None:
            sp.complete("store_wait", t0, dt, {"item": int(item)})
        return out

    def plan_accesses(self, plan: TraversalPlan) -> list[tuple[int, tuple, bool]]:
        """The store access sequence a plan will generate (for prefetching).

        Returns ``(item, pins, write_only)`` triples in execution order —
        computable ahead of time because the plan fixes the order (§3.4).
        """
        out: list[tuple[int, tuple, bool]] = []
        layout = self.layout
        for step in plan.steps:
            children = [c for c in (step.left, step.right) if not self.tree.is_tip(c)]
            for b in range(layout.blocks_per_node):
                for c in children:
                    pins = self._block_pins(
                        [x for x in (step.left, step.right, step.node)
                         if x != c], b)
                    out.append((layout.item_of(self.item(c), b), pins, False))
                out.append((layout.item_of(self.item(step.node), b),
                            self._block_pins([step.left, step.right], b), True))
        return out

    def execute_plan(self, plan: TraversalPlan) -> None:
        """Run every pruning step of a plan through the vector store.

        Operand fetch order and mutual pinning follow §3.2: the two child
        vectors are fetched (pinning each other and the target), then the
        target is fetched **write-only** — the read-skipping hook — and the
        kernel fills it. Orientation is committed after each step so a
        failure leaves a consistent state. With a prefetcher attached, the
        plan's access sequence is handed to it first, so swap-ins overlap
        the kernel arithmetic (§5).

        Under a block layout the step runs once per site block: block ``b``
        of the target needs only block ``b`` of each child (per-site
        independence), so the (left, right, out) fetch-and-pin triple —
        and the kernel — iterate over blocks with the scale-count rows
        sliced to each block's pattern range. With the whole-vector layout
        there is exactly one block spanning all patterns and the sequence
        of store calls, pins and kernel operands is bit-for-bit the
        pre-layout one.
        """
        if self.prefetcher is not None and plan.steps:
            self.prefetcher.feed(self.plan_accesses(plan))
        sp_plan = self.spans
        exec_t0 = time.perf_counter() if sp_plan is not None else 0.0
        tree = self.tree
        layout = self.layout
        for step in plan.steps:
            node, left, right = step.node, step.left, step.right
            P_left = self._P(node, left)
            P_right = self._P(node, right)

            left_inner = not tree.is_tip(left)
            right_inner = not tree.is_tip(right)
            rc = self._race
            if rc is not None:
                rc.write(self._race_scope, "scale_counts", "orientation")
            counts = self.scale_counts[self.item(node)]
            counts.fill(0)
            if left_inner:
                counts += self.scale_counts[self.item(left)]
            if right_inner:
                counts += self.scale_counts[self.item(right)]
            for b in range(layout.blocks_per_node):
                lo, hi = layout.block_bounds(b)
                span = hi - lo
                l_clv = r_clv = None
                l_codes = r_codes = None
                if left_inner:
                    l_clv = _valid(
                        self._timed_get(layout.item_of(self.item(left), b),
                                        pins=self._block_pins([right, node], b),
                                        write_only=False), span)
                else:
                    l_codes = self._tip_codes[left][lo:hi]
                if right_inner:
                    r_clv = _valid(
                        self._timed_get(layout.item_of(self.item(right), b),
                                        pins=self._block_pins([left, node], b),
                                        write_only=False), span)
                else:
                    r_codes = self._tip_codes[right][lo:hi]
                out = _valid(
                    self._timed_get(layout.item_of(self.item(node), b),
                                    pins=self._block_pins([left, right], b),
                                    write_only=True), span)
                block_counts = counts if span == counts.shape[0] else counts[lo:hi]
                tm, sp = self.timers, self.spans
                if tm is None and sp is None:
                    kernels.update_clv(out, P_left, P_right, l_clv, r_clv,
                                       l_codes, r_codes, self._code_matrix,
                                       block_counts, self.scaling)
                else:
                    k0 = time.perf_counter()
                    kernels.update_clv(out, P_left, P_right, l_clv, r_clv,
                                       l_codes, r_codes, self._code_matrix,
                                       block_counts, self.scaling)
                    k_dt = time.perf_counter() - k0
                    if tm is not None:
                        tm.add("kernel", k_dt)
                    if sp is not None:
                        sp.complete("kernel", k0, k_dt,
                                    {"node": int(node), "block": b})
            self.orientation.set(node, step.toward)
        if sp_plan is not None:
            # The enclosing interval: kernel/store_wait spans nest inside
            # it on the compute-thread track of the exported timeline.
            sp_plan.complete("execute_plan", exec_t0,
                             time.perf_counter() - exec_t0,
                             {"steps": len(plan.steps)})

    # -- likelihood evaluation ----------------------------------------------------------

    def _root_site_likelihoods(self, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-pattern likelihoods and scale counts across edge ``(u, v)``.

        Both end CLVs must be current (run :meth:`execute_plan` first).
        Fetches proceed block by block with mutual pins; the per-pattern
        results are assembled into one RAM array, so the final weighted
        reduction is performed unblocked — the summation order (and hence
        the bits) of the log-likelihood is layout-independent.
        """
        tree = self.tree
        layout = self.layout
        counts = np.zeros(self.num_patterns, dtype=np.int64)
        u_inner = not tree.is_tip(u)
        v_inner = not tree.is_tip(v)
        rc = self._race
        if rc is not None:
            rc.read(self._race_scope, "scale_counts")
        if u_inner:
            counts += self.scale_counts[self.item(u)]
        if v_inner:
            counts += self.scale_counts[self.item(v)]
        P = self._P(u, v)
        freqs = self.model.frequencies.astype(self.dtype)
        weights = self.rates.weights.astype(self.dtype)
        single = layout.blocks_per_node == 1
        site_l = None if single else np.empty(self.num_patterns,
                                              dtype=self.dtype)
        for b in range(layout.blocks_per_node):
            lo, hi = layout.block_bounds(b)
            span = hi - lo
            u_clv = v_clv = None
            u_codes = v_codes = None
            if u_inner:
                u_clv = _valid(
                    self._timed_get(layout.item_of(self.item(u), b),
                                    pins=self._block_pins([v], b),
                                    write_only=False), span)
            else:
                u_codes = self._tip_codes[u][lo:hi]
            if v_inner:
                v_clv = _valid(
                    self._timed_get(layout.item_of(self.item(v), b),
                                    pins=self._block_pins([u], b),
                                    write_only=False), span)
            else:
                v_codes = self._tip_codes[v][lo:hi]
            part = kernels.edge_site_likelihoods(
                P, freqs, weights,
                u_clv, v_clv, u_codes, v_codes, self._code_matrix,
            )
            if single:
                # hand back the kernel's own array — the pre-layout object
                return part, counts
            site_l[lo:hi] = part
        assert site_l is not None
        return site_l, counts

    def _edge_sumtable(self, u: int, v: int) -> np.ndarray:
        """Eigen-basis sumtable across edge ``(u, v)`` (makenewz phase 1).

        Both end CLVs must be current. Assembled block by block into one
        ``(patterns, categories, states)`` RAM array. With a single block
        the kernel's own output array is returned as-is: the downstream
        Newton einsums are sensitive to operand memory layout at the ulp
        level, and the kernel's (non-contiguous) product is what the
        pre-layout code handed them — copying it into a fresh buffer
        would shift the optimized branch length by an ulp or two.
        """
        tree = self.tree
        layout = self.layout
        ev = self.model.eigenvectors.astype(self.dtype)
        iev = self.model.inv_eigenvectors.astype(self.dtype)
        freqs = self.model.frequencies.astype(self.dtype)
        u_inner = not tree.is_tip(u)
        v_inner = not tree.is_tip(v)
        single = layout.blocks_per_node == 1
        table = None if single else np.empty(
            (self.num_patterns, self.rates.num_categories,
             self.model.num_states), dtype=self.dtype)
        for b in range(layout.blocks_per_node):
            lo, hi = layout.block_bounds(b)
            span = hi - lo
            u_clv = v_clv = None
            u_codes = v_codes = None
            if u_inner:
                u_clv = _valid(
                    self.store.get(layout.item_of(self.item(u), b),
                                   pins=self._block_pins([v], b)), span)
            else:
                u_codes = self._tip_codes[u][lo:hi]
            if v_inner:
                v_clv = _valid(
                    self.store.get(layout.item_of(self.item(v), b),
                                   pins=self._block_pins([u], b)), span)
            else:
                v_codes = self._tip_codes[v][lo:hi]
            part = kernels.branch_sumtable(
                ev, iev, freqs, u_clv, v_clv, u_codes, v_codes,
                self._code_matrix,
            )
            if single:
                return part
            table[lo:hi] = part
        assert table is not None
        return table

    def edge_loglikelihood(self, u: int, v: int, full: bool = False) -> float:
        """Log-likelihood with the virtual root on edge ``(u, v)``.

        Recomputes exactly the stale CLVs on both sides (all of them with
        ``full=True`` — the paper's ``-f z`` worst case), then combines the
        two end vectors across the branch.
        """
        plan = self.plan(u, v, full=full)
        self.execute_plan(plan)
        self._root_edge = (u, v)
        site_l, counts = self._root_site_likelihoods(u, v)
        return kernels.log_likelihood_from_sites(
            site_l, self.pattern_weights, counts, self.scaling
        )

    def loglikelihood(self) -> float:
        """Log-likelihood at the last evaluation edge (or the default edge)."""
        u, v = self._root_edge if self._root_edge is not None else self.default_edge()
        if not self.tree.has_edge(u, v):
            u, v = self.default_edge()
        return self.edge_loglikelihood(u, v)

    def site_loglikelihoods(self) -> np.ndarray:
        """Per-original-site log-likelihoods (expanded from patterns)."""
        u, v = self._root_edge if self._root_edge is not None else self.default_edge()
        plan = self.plan(u, v)
        self.execute_plan(plan)
        self._root_edge = (u, v)
        site_l, counts = self._root_site_likelihoods(u, v)
        per_pattern = np.log(site_l) - counts * self.scaling.log_multiplier
        return per_pattern[self.alignment.compress().pattern_of_site]

    def full_traversals(self, count: int = 1) -> float:
        """Recompute *every* ancestral vector ``count`` times; return lnL.

        Reproduces the paper's §4.3 benchmark mode (``-f z``): "reading in
        a given, fixed, tree topology and computing five full tree
        traversals ... the worst-case analysis, since full tree traversals
        exhibit the smallest degree of vector locality."
        """
        if count < 1:
            raise LikelihoodError(f"count must be >= 1, got {count}")
        u, v = self.default_edge()
        lnl = 0.0
        for _ in range(count):
            lnl = self.edge_loglikelihood(u, v, full=True)
        return lnl

    # -- mutations (invalidation-aware wrappers around Tree edits) ---------------------

    def set_branch_length(self, u: int, v: int, length: float) -> None:
        """Change a branch length and invalidate dependent CLVs."""
        self.tree.set_branch_length(u, v, length)
        self.orientation.after_branch_change(u, v)

    def apply_spr(self, prune_node: int, subtree_neighbor: int,
                  target_edge: tuple[int, int]):
        """Apply an SPR move; returns the undo record for :meth:`undo_spr`."""
        undo = self.tree.spr_move(prune_node, subtree_neighbor, target_edge)
        self.orientation.after_spr(prune_node, undo.old_a, undo.old_b,
                                   undo.target_u, undo.target_v)
        return undo

    def undo_spr(self, undo) -> None:
        """Reverse an SPR (topology, lengths and CLV validity)."""
        self.tree.undo_spr(undo)
        # The reverse move regrafts from between (target_u, target_v) back
        # into the reconstituted (old_a, old_b) edge: same invalidation with
        # the two locations swapped.
        self.orientation.after_spr(undo.prune_node, undo.target_u, undo.target_v,
                                   undo.old_a, undo.old_b)

    def apply_nni(self, edge: tuple[int, int], variant: int = 0):
        """Apply an NNI move; returns the undo record for :meth:`undo_nni`."""
        undo = self.tree.nni(edge, variant)
        self.orientation.after_nni(undo.u, undo.v, undo.swapped_u, undo.swapped_v)
        return undo

    def undo_nni(self, undo) -> None:
        self.tree.undo_nni(undo)
        # After the reverse swap the exchanged subtrees are back; the
        # invalidation geometry is identical with the roles flipped.
        self.orientation.after_nni(undo.u, undo.v, undo.swapped_v, undo.swapped_u)

    def invalidate_all(self) -> None:
        """Drop every cached CLV orientation (e.g. after a model change)."""
        self.orientation.invalidate_all()

    def set_rates(self, rates: RateModel) -> None:
        """Swap the rate model (same category count); invalidates all CLVs."""
        if rates.num_categories != self.rates.num_categories:
            raise LikelihoodError(
                "category count is fixed by the CLV geometry; rebuild the engine "
                f"to go from {self.rates.num_categories} to {rates.num_categories}"
            )
        self.rates = rates
        self._p_cache.clear()
        self.invalidate_all()

    def set_model(self, model: ReversibleModel) -> None:
        """Swap the substitution model; invalidates all CLVs."""
        if model.num_states != self.model.num_states:
            raise LikelihoodError("state count is fixed by the CLV geometry")
        self.model = model
        self._p_cache.clear()
        self.invalidate_all()

    def set_pattern_weights(self, weights) -> None:
        """Override the per-pattern multiplicities (bootstrap resampling).

        A nonparametric bootstrap replicate is exactly the original pattern
        set with multinomially resampled weights
        (:func:`repro.phylo.bootstrap.bootstrap_weights`), so swapping the
        weight vector re-targets the engine to a replicate without touching
        any CLV: conditional likelihoods are weight-independent — only the
        final weighted sum changes. Zero weights are allowed (patterns
        absent from the replicate).
        """
        weights = np.ascontiguousarray(np.asarray(weights, dtype=np.float64))
        if weights.shape != (self.num_patterns,):
            raise LikelihoodError(
                f"need {self.num_patterns} pattern weights, got {weights.shape}"
            )
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise LikelihoodError("pattern weights must be finite and >= 0")
        self.pattern_weights = weights

    def reset_pattern_weights(self) -> None:
        """Restore the alignment's original pattern multiplicities."""
        self.pattern_weights = self.alignment.compress().weights.astype(np.float64)

    # -- optimization façade (shared protocol with PartitionedEngine) ----------

    def optimize_branch(self, u: int, v: int, **kwargs) -> float:
        """Newton–Raphson optimize one branch; see
        :func:`repro.phylo.likelihood.branch_opt.optimize_branch`."""
        from repro.phylo.likelihood.branch_opt import optimize_branch

        return optimize_branch(self, u, v, **kwargs)

    def optimize_all_branches(self, passes: int = 1, **kwargs) -> float:
        """Smooth every branch; see
        :func:`repro.phylo.likelihood.branch_opt.smooth_all_branches`."""
        from repro.phylo.likelihood.branch_opt import smooth_all_branches

        return smooth_all_branches(self, passes=passes, **kwargs)

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Stop the prefetch thread (if any) and close the store.

        Drains pending write-behind traffic first, so the backing store is
        durable when this returns.
        """
        if self.prefetcher is not None:
            self.prefetcher.stop()
            self.prefetcher = None
        close = getattr(self.store, "close", None)
        if close is not None:
            close()

    # -- memory accounting --------------------------------------------------------------

    def ancestral_vector_bytes(self) -> int:
        """Width ``w`` of one ancestral vector in bytes (paper §3.1)."""
        return int(np.prod(self.clv_shape)) * self.dtype.itemsize

    def total_ancestral_bytes(self) -> int:
        """``(n-2) · w`` — the footprint the out-of-core store bounds."""
        return self.num_inner * self.ancestral_vector_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LikelihoodEngine({self.tree.num_tips} taxa, {self.num_patterns} patterns, "
            f"{self.model.name}+{self.rates.num_categories}cat, store={self.store!r})"
        )
