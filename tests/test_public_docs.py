"""Every public function and class of the package has a docstring of its
own: for a class, one it defines, not the signature that ``dataclass`` or
``NamedTuple`` generates when it has none."""

import inspect

import pytest

import mhd2tor

PUBLIC = sorted(
    name
    for name in mhd2tor.__all__
    if inspect.isfunction(getattr(mhd2tor, name)) or inspect.isclass(getattr(mhd2tor, name))
)


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_has_a_docstring(name):
    obj = getattr(mhd2tor, name)
    doc = vars(obj).get("__doc__") if inspect.isclass(obj) else obj.__doc__
    assert doc and doc.strip() and not doc.startswith(f"{obj.__name__}(")
