import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "archdeps"


def imported_roots(tree: ast.AST):
    """The top-level package of every absolute import in the tree; a relative
    import names the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_every_module_imports_only_the_standard_library_or_the_package():
    paths = sorted(SOURCE.rglob("*.py"))
    assert len(paths) > 1
    for path in paths:
        roots = set(imported_roots(ast.parse(path.read_text(encoding="utf-8"), str(path))))
        outside = roots - sys.stdlib_module_names - {"archdeps"}
        assert not outside, f"{path.name} imports {sorted(outside)}"
