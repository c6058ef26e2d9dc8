import pytest

from roughn_lab.bump_functions import make_bump


@pytest.fixture(scope="session")
def bump_spec():
    return make_bump()
