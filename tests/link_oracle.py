"""Per-lag and per-offset reference link arithmetic, kept as a test oracle.

These are the loop forms of the link layer's per-drop arithmetic: the tap
projection as one three-operand ``einsum``, one ``einsum`` per lag for the
block-Toeplitz lag sums, a per-block noise add, and two ``einsum``s per
interference offset in the rate.  The library computes the same formulas as
small matrix products on block-row views; the tests compare the two on
seeded drops.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from mmwchan.link import StackedModel


def build_stacked_model(channel, beamformers, noise_variance):
    """Project every tap through the beamformers."""
    if noise_variance <= 0:
        raise ValueError(f"noise variance must be positive, got {noise_variance!r}")
    G = np.einsum(
        "ra,prt,tb->pab",
        beamformers.combiner.conj(),
        channel.taps,
        beamformers.precoder,
    )
    return StackedModel(
        projected_taps=np.ascontiguousarray(G),
        combiner=beamformers.combiner,
        noise_variance=noise_variance,
    )


def lag_gram(G):
    """Block lags R(d) = sum_k G(k) G(k-d)^H for d = -(P-1) .. P-1,
    returned as (2P-1, M, M) with lag d at index P-1+d."""
    p, m = G.shape[0], G.shape[1]
    lags = np.empty((2 * p - 1, m, m), dtype=np.complex128)
    for d in range(p):
        r = np.einsum("kab,kcb->ac", G[d:], G[: p - d].conj())
        lags[p - 1 + d] = r
        if d:
            lags[p - 1 - d] = r.conj().T
    return lags


def stacked_covariance(model, tx_power):
    """C = (P_T/M)(A A^H + A_I A_I^H) + noise_variance B B^H."""
    G = model.projected_taps
    p, m = G.shape[0], G.shape[1]
    lags = lag_gram(G)
    idx = np.arange(p)[:, None] - np.arange(p)[None, :] + (p - 1)
    cov = lags[idx].transpose(0, 2, 1, 3).reshape(p * m, p * m)
    cov *= tx_power / m
    noise_block = model.noise_variance * (model.combiner.conj().T @ model.combiner)
    for j in range(p):
        cov[j * m : (j + 1) * m, j * m : (j + 1) * m] += noise_block
    return cov


def achievable_rate(model, estimator, tx_power):
    """``log2 det[I + R^-1 (P_T/M) E^H A A^H E]``, one offset at a time."""
    G = model.projected_taps
    p, m = G.shape[0], G.shape[1]
    per_stream = tx_power / m
    E = np.asarray(estimator)
    Er = E.reshape(p, m, m)

    signal = E.conj().T @ model.signal_signatures
    interference = np.zeros((m, m), dtype=np.complex128)
    for offset in range(1, p):
        future = np.einsum("jba,jbc->ac", Er[offset:].conj(), G[: p - offset])
        past = np.einsum("jba,jbc->ac", Er[: p - offset].conj(), G[offset:])
        interference += future @ future.conj().T + past @ past.conj().T
    dtd = model.combiner.conj().T @ model.combiner
    noise = model.noise_variance * np.einsum("jba,bc,jcd->ad", Er.conj(), dtd, Er)

    denom = per_stream * interference + noise
    numer = per_stream * (signal @ signal.conj().T)
    try:
        ratio = np.linalg.solve(denom, numer)
    except np.linalg.LinAlgError:
        eps = 1e-12 * max(float(np.trace(denom).real) / m, np.finfo(float).tiny)
        warnings.warn(
            "interference-plus-noise matrix is singular; regularizing",
            RuntimeWarning,
            stacklevel=2,
        )
        ratio = np.linalg.solve(denom + eps * np.eye(m), numer)
    _, logdet = np.linalg.slogdet(np.eye(m) + ratio)
    return max(float(logdet) / np.log(2.0), 0.0)


def lmmse_operator(model, tx_power):
    """LMMSE estimator C^-1 A (P_T/M) on the oracle covariance."""
    factor = scipy.linalg.cho_factor(stacked_covariance(model, tx_power))
    return scipy.linalg.cho_solve(factor, model.signal_signatures) * (
        tx_power / model.n_streams
    )
