"""The package namespace: every public name is its defining module's object.

``voltmask`` imports a module the first time it or one of its names is
looked up; tests/test_console.py checks what a fresh interpreter loads,
including ``from voltmask import ecm``.  These tests check that the
names the package serves are the modules' own.
"""

import importlib

import pytest

import voltmask


def test_every_public_name_is_the_defining_modules_object():
    assert len(voltmask.__all__) == len(set(voltmask.__all__)) == 42
    for name in voltmask.__all__:
        value = getattr(voltmask, name)
        module = importlib.import_module(value.__module__)
        assert module.__name__.startswith("voltmask."), name
        assert name in module.__all__ and getattr(module, name) is value, name


def test_divergence_error_is_one_class_wherever_it_is_named():
    import voltmask.attack
    import voltmask.config

    assert voltmask.attack.DivergenceError is voltmask.DivergenceError
    assert voltmask.config.DivergenceError is voltmask.DivergenceError
    assert "DivergenceError" in voltmask.attack.__all__


def test_dir_lists_every_public_name_and_module():
    listed = dir(voltmask)
    modules = {"attack", "config", "ecm", "metrics", "profiles", "scenario", "stealth", "sysid"}
    assert set(voltmask.__all__) | modules <= set(listed) and listed == sorted(listed)


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from voltmask import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(voltmask.__all__)
    assert namespace["fit_rc"] is voltmask.sysid.fit_rc


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        voltmask.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from voltmask import no_such_name", {})

