import types

import siginvert


def test_all_names_the_api_and_no_module():
    # a star import binds the API, never a submodule such as signature,
    # whose name a user would expect to be a function
    modules = {name for name, value in vars(siginvert).items()
               if isinstance(value, types.ModuleType)}
    assert modules >= {"bounds", "development", "errors", "insertion",
                       "signature", "tensor_algebra"}
    assert not modules & set(siginvert.__all__)
    public = {name for name in vars(siginvert)
              if not name.startswith("_") and name not in modules}
    assert sorted(public) == siginvert.__all__
    namespace = {}
    exec("from siginvert import *", namespace)
    assert not any(isinstance(v, types.ModuleType) for v in namespace.values())
