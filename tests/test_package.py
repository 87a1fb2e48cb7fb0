"""Package-wide structure: code in src/gnlab that nothing calls is deleted."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gnlab"


def test_every_private_function_has_a_caller():
    """Each private top-level function of gnlab is referenced, by name or as
    a module attribute, somewhere in gnlab outside its own body."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    uncalled = []
    for tree in trees:
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or not fn.name.startswith("_") or fn.name.startswith("__"):
                continue
            own = {id(node) for node in ast.walk(fn)}
            refs = [
                node for t in trees for node in ast.walk(t)
                if id(node) not in own and getattr(node, "id", getattr(node, "attr", None)) == fn.name
            ]
            if not refs:
                uncalled.append(fn.name)
    assert uncalled == []
