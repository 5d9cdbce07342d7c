"""Fixtures shared by the test modules."""

import contextlib

import pytest

from svarlic import linalg, model


@pytest.fixture(scope="session")
def chunks():
    """A context manager, ``with chunks(samples):``, inside which every
    pass over the samples, the Gram products and the residuals alike
    (`linalg._chunk_bounds`), cuts its window into near-equal chunks of at
    most `samples` samples, however few, and every fit forms the structured
    Gram, whose lag products those chunks feed; ``chunks(None)`` changes
    nothing. It holds no state, so hypothesis tests enter it once per
    example."""

    @contextlib.contextmanager
    def cut(samples):
        with pytest.MonkeyPatch.context() as patch:
            if samples is not None:
                patch.setattr(linalg, "_CHUNK_SAMPLES", samples)
                patch.setattr(linalg, "_MIN_CHUNK", 1)
                patch.setattr(model, "_DENSE_GRAM_WORK", 0)
            yield

    return cut
