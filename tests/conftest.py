"""Shared pytest set-up: hypothesis runs the same cases on every machine
(derandomized, no example database) and never fails a case for being slow.
Its remaining cache goes to a pytest temporary directory, so a test run
writes no .hypothesis/ directory into the tree."""

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("enetcpu", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("enetcpu")


@pytest.fixture(autouse=True, scope="session")
def _hypothesis_home(tmp_path_factory):
    set_hypothesis_home_dir(tmp_path_factory.mktemp("hypothesis"))
