"""``effectprob.__all__`` names exactly the package's public names.

A name deleted from the package cannot linger in ``__all__``, and a new
public name cannot be left out of it. Submodules are attributes of the
package once imported, so only ``errors``, the one module the package
exports, is listed among them.
"""

from __future__ import annotations

import types

import effectprob


def test_all_is_the_public_non_module_attributes_plus_errors():
    public = {
        name
        for name, value in vars(effectprob).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(effectprob.__all__) == len(set(effectprob.__all__))
    assert set(effectprob.__all__) == public | {"errors"}


def test_every_entry_resolves():
    namespace: dict = {}
    exec("from effectprob import *", namespace)
    for name in effectprob.__all__:
        assert namespace[name] is getattr(effectprob, name)
    assert isinstance(effectprob.errors, types.ModuleType)
