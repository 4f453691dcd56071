import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from olie import GF, OmegaAlgebra
from olie import catalog
from oracles import first_violation_reference


@pytest.fixture(autouse=True)
def recheck_trusted_algebras():
    """Certify every algebra that ``OmegaAlgebra._trusted`` builds.

    The library trusts subalgebras, quotients, extensions of certified
    algebras and the random dimension-3 instances without running the
    check again; here each of them is checked with the six-bracket law
    loop of ``oracles``, not with the library check it guards, so a
    test counting ``_first_violation`` calls does not see these runs.
    """
    trusted = vars(OmegaAlgebra)["_trusted"]

    def checked(cls, *args, **kwargs):
        alg = trusted.__func__(cls, *args, **kwargs)
        violation = first_violation_reference(alg)
        assert violation is None, f"trusted {alg!r} violates the law: {violation}"
        return alg

    OmegaAlgebra._trusted = classmethod(checked)
    try:
        yield
    finally:
        OmegaAlgebra._trusted = trusted


@pytest.fixture
def s4():
    return catalog.builtin_algebra("omega.s4")


@pytest.fixture
def n3():
    return catalog.builtin_algebra("omega.n3")


@pytest.fixture
def sl2():
    return catalog.builtin_algebra("lie.sl2")


@pytest.fixture
def aff1():
    return catalog.builtin_algebra("lie.aff1")


@pytest.fixture
def sl2e():
    return catalog.builtin_algebra("omega.sl2e")


@pytest.fixture
def gf5():
    return GF(5)
