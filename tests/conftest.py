import pytest

from szeta import zeta_core as zc


@pytest.fixture(scope="session")
def zeros() -> zc.ZeroTable:
    return zc.bundled_zeros()


@pytest.fixture(scope="session")
def zeros500(zeros) -> zc.ZeroTable:
    return zc.ZeroTable(ordinates=zeros.ordinates[:500],
                        precision=zeros.precision,
                        source="bundled-head")
