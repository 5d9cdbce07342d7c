"""Fixtures shared by the test modules."""

import contextlib

import numpy as np
import pytest
from hypothesis import strategies as st

from svarlic import linalg


@pytest.fixture(scope="session")
def chunks():
    """A context manager, ``with chunks(samples):``, inside which the one
    rule for every pass over the samples, the Gram products and the
    residuals alike (`linalg._chunk_bounds`), cuts every window wider than
    `samples` into near-equal chunks of at most that many, however few.
    That shrinks the chunk buffer that decides where
    `model._regressor_gram` stacks T whole, so every window longer than
    `samples` forms the structured Gram, whose lag products those chunks
    feed; ``chunks(None)`` changes nothing. It holds no state,
    so hypothesis tests enter it once per example."""

    @contextlib.contextmanager
    def cut(samples):
        with pytest.MonkeyPatch.context() as patch:
            if samples is not None:
                patch.setattr(linalg, "_CHUNK_SAMPLES", samples)
                patch.setattr(linalg, "_MIN_CHUNK", 1)
            yield

    return cut


class ResidualStacks:
    """Window lengths for a property run under ``chunks(width)``, and a
    check, once the property has run, that a residual pass of 2M rows per
    sample (`linalg._chunk_bounds` for a ``"paired"`` pass), `fit_both`'s
    ``V V^H``, cut the windows into chunks one sample wide and, in at
    least a quarter of the windows it cut, several samples wide."""

    def __init__(self, chunks):
        self.chunks = chunks
        self.examples = []

    def window(self, data, m, k, width, lead, most):
        """A sample count drawn with `data`: K + `lead`, 0 .. `most` whole
        chunks of `width` samples and a rest of 0 .. `width` - 1. Drawn
        directly, hypothesis favours windows below one chunk."""
        n = (k + lead + width * data.draw(st.integers(0, most))
             + data.draw(st.integers(0, width - 1)))
        self.examples.append((m, n, k, width))
        return n

    def check(self):
        widest = []
        for m, n, k, width in self.examples:
            with self.chunks(width):
                bounds, cut, _ = linalg._chunk_bounds(m, n, k, np.dtype(float), "paired")
            if cut:
                widest.append(np.diff(bounds).max())
        assert widest and min(widest) == 1
        assert sum(w >= 2 for w in widest) >= len(widest) / 4


@pytest.fixture
def residual_stacks(chunks):
    return ResidualStacks(chunks)
