import pkgutil

import monotrack as mt


def test_star_import_binds_the_public_api_only():
    namespace = {}
    exec("from monotrack import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert bound == set(mt.__all__)
    submodules = {info.name for info in pkgutil.iter_modules(mt.__path__)}
    assert {"numkernel", "solvability", "seeding"} <= submodules
    assert not bound & submodules
