"""Ordered map over the independent jobs of one call."""

from __future__ import annotations


def parallel_map(fn, items):
    """[fn(x) for x in items].

    Dense eigensolves already run on every core through BLAS, so the jobs
    run one after another."""
    return [fn(x) for x in items]
