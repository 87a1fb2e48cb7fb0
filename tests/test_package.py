"""Package-wide structure: code in src/gnlab that nothing calls is deleted,
and the names README gives resolve."""
import ast
import importlib
import pathlib
import re

import gnlab

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gnlab"


def _referenced(fn, trees) -> bool:
    """Whether the top-level function fn is referenced, by name or as a module
    attribute, somewhere in trees outside its own body.  An import is not a
    reference, so __init__'s re-exports do not count."""
    own = {id(node) for node in ast.walk(fn)}
    return any(
        id(node) not in own and getattr(node, "id", getattr(node, "attr", None)) == fn.name
        for tree in trees for node in ast.walk(tree)
    )


def test_every_private_function_has_a_caller():
    """Each private top-level function of gnlab is referenced somewhere in
    gnlab outside its own body."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    uncalled = [
        fn.name for tree in trees for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_") and not fn.name.startswith("__")
        and not _referenced(fn, trees)
    ]
    assert uncalled == []


def _public_defs(tree):
    """(label, def) for each public top-level function of a module and each
    public method of its top-level classes, labelled `name` or `Class.name`."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield f"{node.name}.{fn.name}", fn
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node


def test_every_public_function_has_a_user():
    """Each public top-level function of gnlab, and each public method of its
    classes, is referenced in gnlab outside its own body, or is named in
    README or in a bench/*.py file other than bench/tracer.py.  The tracer
    names functions in order to wrap them, so naming one there shows no use.
    A function that only the tests call belongs in the tests
    (tests/instruments.py)."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    texts = [ROOT / "README.md", *sorted((ROOT / "bench").glob("*.py"))]
    named = "\n".join(path.read_text() for path in texts if path.name != "tracer.py")
    unused = [
        label for tree in trees for label, fn in _public_defs(tree)
        if not _referenced(fn, trees) and not re.search(rf"\b{fn.name}\b", named)
    ]
    assert unused == []


def _literal(node):
    """A hashable key for a literal argument, or None for any other expression."""
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None
    return type(value), repr(value)


def test_no_private_parameter_is_one_literal():
    """No parameter of a private top-level function of gnlab is passed the
    same literal by every call in gnlab, by position, keyword or default:
    such a parameter is a constant, and its argument is dead.  A call that
    unpacks *args or **kwargs counts as passing a non-literal."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    functions = {
        fn.name: fn for tree in trees for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_") and not fn.name.startswith("__")
    }
    passed = {}  # (function, parameter) -> the literal keys its calls pass
    calls = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]
    for node in calls:
        fn = functions.get(getattr(node.func, "id", getattr(node.func, "attr", None)))
        if fn is None:
            continue
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        defaults = dict(zip(reversed([a.arg for a in args.posonlyargs + args.args]), reversed(args.defaults)))
        defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
        given = dict(zip(params, node.args))
        given.update((k.arg, k.value) for k in node.keywords)
        opaque = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
        for p in params:
            arg = given.get(p, defaults.get(p))
            passed.setdefault((fn.name, p), []).append(None if opaque or arg is None else _literal(arg))
    constant = [key for key, values in passed.items() if None not in values and len(set(values)) == 1]
    assert constant == []


def _readme_spans():
    return re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())


def test_readme_dotted_names_resolve():
    """A backticked dotted name whose head is gnlab, a gnlab submodule or an
    export of gnlab (`spectral.psi`, `norms.norm_values(...)`,
    `Field.is_real`) resolves attribute by attribute."""
    submodules = {path.stem for path in SRC.glob("*.py") if path.stem != "__init__"}
    checked, missing = 0, []
    for span in _readme_spans():
        m = re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?", span)
        if not m:
            continue
        head, *attrs = m.group(1).split(".")
        if head == "gnlab" and attrs[0] in submodules:
            head, *attrs = attrs
        if head in submodules:
            obj = importlib.import_module(f"gnlab.{head}")
        elif head in vars(gnlab) and not head.startswith("_"):
            obj = getattr(gnlab, head)
        else:
            continue
        checked += 1
        try:
            for attr in attrs:
                obj = getattr(obj, attr)
        except AttributeError:
            missing.append(span)
    assert checked > 0
    assert missing == []


def test_readme_private_names_are_functions():
    """Every backticked `_name` is a top-level function of a gnlab module."""
    functions = {
        fn.name
        for path in SRC.glob("*.py")
        for fn in ast.parse(path.read_text()).body
        if isinstance(fn, ast.FunctionDef)
    }
    names = [m.group(1) for span in _readme_spans()
             if (m := re.fullmatch(r"(_\w+)(?:\(.*\))?", span))]
    assert names
    assert [name for name in names if name not in functions] == []


def test_no_function_level_imports():
    """Every import in gnlab is at module level, so a module's dependencies
    are the ones its header lists."""
    inner = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert inner == []


def test_version_matches_pyproject():
    """gnlab.__version__ is the release number in pyproject.toml, so an
    installed package and a source checkout report the same release."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1) == gnlab.__version__


def test_every_test_dependency_is_imported():
    """Each package of pyproject's `test` extra is imported by some module
    under tests/, so the extra lists no dependency that nothing uses."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    extra = re.search(r"^test = \[(.*)\]$", pyproject, re.M).group(1)
    wanted = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
              for req in re.findall(r'"([^"]+)"', extra)}
    imported = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                imported.add(node.module.split(".")[0])
    assert wanted and sorted(wanted - imported) == []


def test_no_hidden_settings_or_home_writes():
    """No module of gnlab reads os.environ, calls os.getenv or calls
    Path.home: every setting is a flag or a config key, and a command writes
    only its own outputs."""
    def offends(node):
        if isinstance(node, ast.Attribute):
            return (node.attr == "environ" and getattr(node.value, "id", None) == "os") or (
                node.attr in ("getenv", "home"))
        if isinstance(node, ast.ImportFrom):
            return node.module == "os" and any(a.name in ("environ", "getenv") for a in node.names)
        return False

    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if offends(node)
    ]
    assert offenders == []


def _opens_for_writing(node) -> bool:
    """Whether a call may open a file for writing: open, io.open or
    os.fdopen with a mode that is not a literal free of w, a, x and +,
    Path.open likewise, Path.write_text or write_bytes, os.open, or a
    tempfile constructor."""
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "id", getattr(node.func, "attr", None))
    owner = getattr(getattr(node.func, "value", None), "id", None)
    if name in ("write_text", "write_bytes", "mkstemp", "NamedTemporaryFile",
                "TemporaryFile", "SpooledTemporaryFile") or (name, owner) == ("open", "os"):
        return True
    if name not in ("open", "fdopen"):
        return False
    mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
    position = 0 if name == "open" and owner not in (None, "io") else 1  # Path.open(mode)
    if mode is None and len(node.args) > position:
        mode = node.args[position]
    if mode is None:
        return False  # read-only by default
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(set(mode.value) & set("wax+"))
    return True


def test_only_the_atomic_writer_opens_files_for_writing():
    """fieldio.write_atomic is the one place gnlab opens a file for
    writing, so every output file, text or GNF, is written atomically
    and its missing directories are created."""
    writers = {
        f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if _opens_for_writing(node)
    }
    assert writers == {"fieldio.write_atomic"}


def test_transforms_only_in_spectral():
    """Every FFT goes through spectral (transform, _rfftn, _irfftn), so no
    other module of gnlab names numpy.fft, by attribute or by import."""
    def names_fft(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "fft" and getattr(node.value, "id", None) in ("np", "numpy")
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").startswith("numpy.fft") or (
                node.module == "numpy" and any(a.name == "fft" for a in node.names))
        if isinstance(node, ast.Import):
            return any(a.name.startswith("numpy.fft") for a in node.names)
        return False

    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "spectral.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if names_fft(node)
    ]
    assert offenders == []


def test_no_numpy_random():
    """Random values come from the counter-based draw of
    testfuncs._complex_normals alone, so no module of gnlab names
    numpy.random, by attribute or by import."""
    def names_random(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "random" and getattr(node.value, "id", None) in ("np", "numpy")
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").startswith("numpy.random") or (
                node.module == "numpy" and any(a.name == "random" for a in node.names))
        if isinstance(node, ast.Import):
            return any(a.name.startswith("numpy.random") for a in node.names)
        return False

    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if names_random(node)
    ]
    assert offenders == []


def test_threads_only_in_spectral():
    """spectral._both is where gnlab runs work on a second thread, so no
    other module of gnlab imports threading or contextvars."""
    def imports_threads(node):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            return False
        return any(name.split(".")[0] in ("threading", "contextvars") for name in names)

    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "spectral.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if imports_threads(node)
    ]
    assert offenders == []
