import ast
import importlib
import pkgutil
from pathlib import Path

import laxflow


def test_all_names_exist_and_package_imports_only_public_names():
    for info in pkgutil.iter_modules(laxflow.__path__):
        module = importlib.import_module(f"laxflow.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)
    # every `from .module import ...` in the package's __init__
    tree = ast.parse(Path(laxflow.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        public = importlib.import_module(f"laxflow.{node.module}").__all__
        stray = [a.name for a in node.names if a.name not in public]
        assert not stray, (node.module, stray)
