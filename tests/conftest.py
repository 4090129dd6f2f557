import pytest

from motzkinrow import enumerate_range


@pytest.fixture(scope="session")
def row():
    """Memoized access to the oracle enumeration of one range."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = enumerate_range(n)
        return cache[n]

    return get


@pytest.fixture(scope="session")
def row_through():
    """All oracle words of ranges 1..n, in row order."""
    cache = {}

    def get(n):
        if n not in cache:
            words = []
            for k in range(1, n + 1):
                words.extend(enumerate_range(k))
            cache[n] = words
        return cache[n]

    return get


@pytest.fixture(scope="session")
def triangle():
    """The Motzkin triangle T(m, d) for m <= size and d <= size + 1, built
    here by T(m, d) = T(m-1, d-1) + T(m-1, d) + T(m-1, d+1) (OEIS A026300)
    with no use of the package's own table."""
    cache = {}

    def get(size):
        if size not in cache:
            rows = [[1] + [0] * (size + 1)]
            for _ in range(size):
                p = rows[-1]
                rows.append([p[0] + p[1]]
                            + [p[d - 1] + p[d] + p[d + 1]
                               for d in range(1, size + 1)]
                            + [0])
            cache[size] = rows
        return cache[size]

    return get
