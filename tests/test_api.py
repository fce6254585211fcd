"""The public API is declared once: each module's ``__all__`` names the
public objects that the module defines, and the package exports their
union, sorted."""
import importlib

import pytest

import wreath_eulerian

MODULES = ["core", "enumeration", "poly", "stats"]


def test_package_exports_the_sorted_union_of_the_module_lists():
    lists = [importlib.import_module(f"wreath_eulerian.{name}").__all__
             for name in MODULES]
    union = [public for names in lists for public in names]
    assert wreath_eulerian.__all__ == sorted(union)
    assert len(set(union)) == len(union)


@pytest.mark.parametrize("name", MODULES)
def test_a_module_lists_only_what_it_defines(name):
    module = importlib.import_module(f"wreath_eulerian.{name}")
    for public in module.__all__:
        obj = getattr(module, public)
        assert obj.__module__ == module.__name__, public
        assert getattr(wreath_eulerian, public) is obj
