import answers
import pytest

from srlkit.enumeration import enumerate_models


@pytest.fixture(scope="session")
def catalog_algebras():
    return answers.catalog_algebras()


@pytest.fixture(scope="session")
def brouwerian6():
    return enumerate_models("brouwerian", 6)


@pytest.fixture(scope="session")
def srl5():
    return enumerate_models("srl", 5)


@pytest.fixture(scope="session")
def sirl5():
    return enumerate_models("sirl", 5)


@pytest.fixture(scope="session")
def suite(catalog_algebras, brouwerian6, srl5, sirl5):
    """The standing verification suite: catalog entries plus enumerated
    Brouwerian algebras to size 6 and S[I]RLs to size 5."""
    return catalog_algebras + list(brouwerian6) + list(srl5) + list(sirl5)
