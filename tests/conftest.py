import numpy as np
import pytest

from orthoplex import TolerancePolicy


@pytest.fixture
def policy():
    return TolerancePolicy()


def random_rotation(d: int, rng) -> np.ndarray:
    """Haar-ish random orthogonal matrix with det +1."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def count_inverses(monkeypatch) -> list:
    """Patch ``np.linalg`` for the rest of a test: ``inv`` appends the shape
    of each argument to the list returned here, and every eigensolve and
    ``svd`` raises."""
    shapes = []
    real = np.linalg.inv

    def inv(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("no eigensolve or SVD is made here")

    monkeypatch.setattr(np.linalg, "inv", inv)
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    return shapes
