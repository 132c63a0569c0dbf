"""Every name the package exports must exist, so a deletion that leaves a
stale entry in ``liftedcodes.__all__`` fails here and not only at
``from liftedcodes import *``."""

import pytest

import liftedcodes


@pytest.mark.parametrize("name", liftedcodes.__all__)
def test_exported_name_resolves(name):
    assert hasattr(liftedcodes, name), f"liftedcodes.{name}"
