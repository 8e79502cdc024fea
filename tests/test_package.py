"""The package's public face: what ``maxitive`` exports, and the README's
library example.

Every name ``__init__.py`` imports from a submodule is in that
submodule's ``__all__``, so ``from maxitive.<module> import *`` yields the
same names.  The python block under "## Library" runs as written, and
each ``print`` prints what its comment says.
"""

import ast
import contextlib
import importlib
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "maxitive" / "__init__.py"
README = ROOT / "README.md"


def test_every_package_export_is_in_its_modules_all():
    imports = [node for node in ast.parse(INIT.read_text(encoding="utf-8")).body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"maxitive.{node.module}")
        public = getattr(module, "__all__", None)
        assert public is not None, f"maxitive.{node.module} has no __all__"
        missing = [alias.name for alias in node.names if alias.name not in public]
        assert not missing, f"maxitive.{node.module}.__all__ lacks {missing}"


def test_a_star_import_of_errors_yields_its_types_alone():
    errors = importlib.import_module("maxitive.errors")
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    namespace: dict = {}
    exec("from maxitive.errors import *", namespace)
    assert set(namespace) - {"__builtins__"} == defined
    assert len(defined) == 10


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_the_readme_library_example_prints_what_it_says():
    code = library_example()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert len(printed) == len(comments) == 3
    for got, says in zip(printed, comments):
        assert says == got or says.startswith(f"{got}, "), (got, says)
