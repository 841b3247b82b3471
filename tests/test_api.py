"""The package API: each module's ``__all__`` declares its public names once.

``blochpulse`` re-exports the ``__all__`` of each of its nine API modules and
adds ``__version__``; a name belongs to one module, the one that defines it.
"""

import inspect

import pytest

import blochpulse
from blochpulse import (dynamics, errors, odeint, rates, scenario, states, synthesis,
                        trajectories, verify)

MODULES = (errors, states, rates, trajectories, synthesis, odeint, dynamics, verify, scenario)


@pytest.mark.parametrize("name", [n for n in blochpulse.__all__ if n != "__version__"])
def test_each_package_name_comes_from_one_module_that_defines_it(name):
    owners = [module for module in MODULES if name in module.__all__]
    assert len(owners) == 1, [module.__name__ for module in owners]
    obj = getattr(blochpulse, name)
    assert obj is getattr(owners[0], name)
    if inspect.isclass(obj) or inspect.isfunction(obj):
        assert obj.__module__ == owners[0].__name__


def test_the_package_exports_every_module_name_once_and_its_version():
    names = [name for module in MODULES for name in module.__all__]
    assert sorted(blochpulse.__all__) == sorted(names + ["__version__"])
    assert len(set(blochpulse.__all__)) == len(blochpulse.__all__)


def test_star_import_binds_exactly_the_package_all():
    namespace = {}
    exec("from blochpulse import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(blochpulse.__all__)
