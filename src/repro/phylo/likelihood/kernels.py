"""Numpy-vectorized PLF kernels.

All kernels operate on *conditional likelihood vectors* (CLVs, the paper's
"ancestral probability vectors") laid out as contiguous arrays of shape
``(patterns, categories, states)`` — for DNA under Γ4 that is the
``s × 4 × 4`` doubles block whose size the paper computes in §3.1. Kernels
are vectorized over all patterns at once (the hpc guide's
"vectorize the loops, mind the cache" rule): each is one or two ``einsum``
contractions over contiguous operands plus an in-place rescale.

Numerical scaling follows RAxML: whenever every state's likelihood at a
site drops below ``2^-256``, the site is multiplied by ``2^256`` and a
per-site counter is incremented; the log-likelihood subtracts
``count · 256 · ln 2`` at the root. Scaling decisions depend only on CLV
values, so out-of-core execution reproduces in-core results bit-for-bit
(the paper's §4.1 correctness criterion).
"""

from __future__ import annotations

import numpy as np

from repro.errors import LikelihoodError


class ScalingScheme:
    """Dtype-dependent rescaling constants.

    float64 uses RAxML's ``2^±256``; float32 (the single-precision mode of
    Berger & Stamatakis 2010, paper ref. [1]) must stay inside its narrow
    exponent range and uses ``2^±30``.
    """

    def __init__(self, dtype=np.float64) -> None:
        dtype = np.dtype(dtype)
        if dtype == np.float64:
            self.exponent = 256
        elif dtype == np.float32:
            self.exponent = 30
        else:
            raise LikelihoodError(f"unsupported CLV dtype {dtype}")
        self.dtype = dtype
        self.threshold = dtype.type(2.0) ** (-self.exponent)
        self.multiplier = dtype.type(2.0) ** self.exponent
        self.log_multiplier = self.exponent * np.log(2.0)  # ln(2^exponent)


def tip_lookup(P: np.ndarray, code_matrix: np.ndarray) -> np.ndarray:
    """Per-branch tip lookup table — RAxML's ``tipVector`` precomputation.

    ``P`` is ``(C, S, S)``; ``code_matrix`` is the alphabet's
    ``(num_codes, S)`` 0/1 indicator. Returns ``(C, num_codes, S)`` where
    entry ``[c, k, a] = Σ_b P[c,a,b]·ind[k,b]`` — the probability of state
    ``a`` at the inner end of the branch given observed code ``k`` at the
    tip. Indexing this table by a tip's pattern codes replaces a full
    matrix-vector product per site with a gather.
    """
    return np.einsum("cab,kb->cka", P, code_matrix, optimize=True)


def propagate_tip(P: np.ndarray, codes: np.ndarray, code_matrix: np.ndarray) -> np.ndarray:
    """Child contribution of a *tip* across branch ``P``: ``(patterns, C, S)``."""
    lut = tip_lookup(P, code_matrix)                # (C, K, S)
    return np.ascontiguousarray(lut[:, codes, :].transpose(1, 0, 2))


def propagate_inner(P: np.ndarray, clv: np.ndarray) -> np.ndarray:
    """Child contribution of an *inner* CLV across branch ``P``.

    ``clv`` is ``(patterns, C, S)``; returns the same shape:
    ``out[i,c,a] = Σ_b P[c,a,b] · clv[i,c,b]``.
    """
    return np.einsum("cab,icb->ica", P, clv, optimize=True)


def combine_children(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> None:
    """Elementwise product of the two propagated child contributions, in place.

    This is the Felsenstein recurrence: the parent's conditional likelihood
    is the product of the per-child branch-propagated conditionals.
    ``out`` may alias neither input (it is the freshly allocated slot the
    store returned in write-only mode).
    """
    np.multiply(left, right, out=out)


def rescale_clv(clv: np.ndarray, scale_counts: np.ndarray, scheme: ScalingScheme) -> int:
    """Apply per-site underflow rescaling in place; returns sites rescaled.

    ``scale_counts`` is the ``(patterns,)`` int32 row for this node; it must
    already hold the *sum of the children's counts* (the caller's job) and
    is incremented where this update triggered a rescale.
    """
    site_max = clv.max(axis=(1, 2))
    mask = site_max < scheme.threshold
    n = int(mask.sum())
    if n:
        clv[mask] *= scheme.multiplier
        scale_counts[mask] += 1
    return n


def update_clv(
    out: np.ndarray,
    P_left: np.ndarray,
    P_right: np.ndarray,
    left_clv: np.ndarray | None,
    right_clv: np.ndarray | None,
    left_codes: np.ndarray | None,
    right_codes: np.ndarray | None,
    code_matrix: np.ndarray,
    scale_counts: np.ndarray,
    scheme: ScalingScheme,
) -> None:
    """One Felsenstein-pruning step: fill ``out`` from its two children.

    Each child is either an inner CLV (``*_clv`` given) or a tip
    (``*_codes`` given); exactly one of the two must be non-None per side.
    ``scale_counts`` must be pre-loaded with the children's counts.
    """
    if (left_clv is None) == (left_codes is None):
        raise LikelihoodError("left child must be exactly one of CLV or tip codes")
    if (right_clv is None) == (right_codes is None):
        raise LikelihoodError("right child must be exactly one of CLV or tip codes")
    lc = (propagate_tip(P_left, left_codes, code_matrix)
          if left_clv is None else propagate_inner(P_left, left_clv))
    rc = (propagate_tip(P_right, right_codes, code_matrix)
          if right_clv is None else propagate_inner(P_right, right_clv))
    combine_children(lc, rc, out)
    rescale_clv(out, scale_counts, scheme)


def edge_site_likelihoods(
    P: np.ndarray,
    freqs: np.ndarray,
    cat_weights: np.ndarray,
    u_clv: np.ndarray | None,
    v_clv: np.ndarray | None,
    u_codes: np.ndarray | None,
    v_codes: np.ndarray | None,
    code_matrix: np.ndarray,
) -> np.ndarray:
    """Per-pattern likelihoods evaluated across the virtual-root edge.

    ``L_i = Σ_c w_c Σ_a π_a · U[i,c,a] · (P_c · V)[i,c,a]`` where ``U`` is
    the CLV (or tip indicator) at one end and ``V`` at the other; the branch
    matrix ``P`` is folded into the ``V`` side. Scaling counters are *not*
    applied here — the caller adds ``(counts_u + counts_v) · log_multiplier``
    in log space.
    """
    if (u_clv is None) == (u_codes is None):
        raise LikelihoodError("u side must be exactly one of CLV or tip codes")
    if (v_clv is None) == (v_codes is None):
        raise LikelihoodError("v side must be exactly one of CLV or tip codes")
    U = code_matrix[u_codes][:, None, :] if u_clv is None else u_clv
    folded = (propagate_tip(P, v_codes, code_matrix)
              if v_clv is None else propagate_inner(P, v_clv))
    # Σ_a π_a U·folded, then weight categories.
    per_cat = np.einsum("ica,ica,a->ic", U, folded, freqs, optimize=True)
    return per_cat @ cat_weights


def log_likelihood_from_sites(
    site_l: np.ndarray,
    pattern_weights: np.ndarray,
    scale_counts_sum: np.ndarray,
    scheme: ScalingScheme,
) -> float:
    """Weighted log-likelihood with scaling-counter correction.

    ``lnL = Σ_i w_i · (ln L_i − counts_i · ln(multiplier))``. Raises if any
    site likelihood is non-positive (a kernel bug or a zero-probability
    pattern under the model).
    """
    if np.any(site_l <= 0.0) or not np.all(np.isfinite(site_l)):
        bad = int(np.argmin(site_l))
        raise LikelihoodError(
            f"non-positive site likelihood at pattern {bad}: {site_l[bad]!r}"
        )
    return float(
        pattern_weights @ (np.log(site_l) - scale_counts_sum * scheme.log_multiplier)
    )


def branch_sumtable(
    eigenvectors: np.ndarray,
    inv_eigenvectors: np.ndarray,
    freqs: np.ndarray,
    u_clv: np.ndarray | None,
    v_clv: np.ndarray | None,
    u_codes: np.ndarray | None,
    v_codes: np.ndarray | None,
    code_matrix: np.ndarray,
) -> np.ndarray:
    """RAxML's ``makenewz`` sumtable: eigen-basis cross terms of the two CLVs.

    Returns ``A`` of shape ``(patterns, C, S)`` with
    ``A[i,c,k] = (Σ_a π_a U[i,c,a] V[a,k]) · (Σ_b V⁻¹[k,b] W[i,c,b])``
    so the per-site likelihood across the branch is the single exponential
    sum ``L_i(t) = Σ_c w_c Σ_k A[i,c,k] e^{λ_k r_c t}`` — the whole
    Newton–Raphson iteration then runs on this table without touching any
    other ancestral vector, which is the access-locality property §4.2
    credits for the low miss rates at tiny slot counts.
    """
    if (u_clv is None) == (u_codes is None):
        raise LikelihoodError("u side must be exactly one of CLV or tip codes")
    if (v_clv is None) == (v_codes is None):
        raise LikelihoodError("v side must be exactly one of CLV or tip codes")
    U = code_matrix[u_codes][:, None, :] if u_clv is None else u_clv
    W = code_matrix[v_codes][:, None, :] if v_clv is None else v_clv
    left = np.einsum("ica,a,ak->ick", U, freqs, eigenvectors, optimize=True)
    right = np.einsum("kb,icb->ick", inv_eigenvectors, W, optimize=True)
    return left * right


def branch_lnl_and_derivatives(
    sumtable: np.ndarray,
    eigenvalues: np.ndarray,
    rates: np.ndarray,
    cat_weights: np.ndarray,
    pattern_weights: np.ndarray,
    t: float,
):
    """``(lnL', lnL'')`` plus raw site likelihoods at branch length ``t``.

    From the sumtable representation: with ``g_i(t) = Σ_{c,k} w_c A[i,c,k]
    e^{λ_k r_c t}``, the slope of the total log-likelihood is
    ``Σ_i w_i g'_i/g_i`` and its curvature ``Σ_i w_i (g''_i/g_i −
    (g'_i/g_i)²)``; scaling constants multiply ``g_i`` and cancel in the
    ratios, so no counters are needed here.

    Returns ``(site_l, d1, d2)``.
    """
    lam = eigenvalues[None, :] * rates[:, None]          # (C, S)
    e = np.exp(lam * t)                                  # (C, S)
    wexp = cat_weights[:, None] * e                      # fold category weights
    g = np.einsum("ick,ck->i", sumtable, wexp, optimize=True)
    g1 = np.einsum("ick,ck->i", sumtable, wexp * lam, optimize=True)
    g2 = np.einsum("ick,ck->i", sumtable, wexp * lam * lam, optimize=True)
    if np.any(g <= 0.0):
        # A candidate branch length drove some site to numerical zero —
        # report infinitely-bad derivatives so the optimizer backtracks.
        return g, np.nan, np.nan
    r1 = g1 / g
    d1 = float(pattern_weights @ r1)
    d2 = float(pattern_weights @ (g2 / g - r1 * r1))
    return g, d1, d2
