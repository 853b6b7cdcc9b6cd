import hypothesis
import pytest

hypothesis.settings.register_profile(
    "package", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("package")


class _Count(list):
    """A one-item list holding the fake BLAS thread count; ``calls`` lists every count set."""


@pytest.fixture
def fake_blas(monkeypatch):
    """A process-wide BLAS thread count, 2, behind a fake ``openblas_set_num_threads_local``."""
    import fdfactor.spectral as spectral

    count = _Count([2])
    count.calls = []

    def set_threads(n):
        count.calls.append(n)
        previous, count[0] = count[0], n
        return previous

    monkeypatch.setattr(spectral, "_blas_thread_setter", lambda: set_threads)
    return count
