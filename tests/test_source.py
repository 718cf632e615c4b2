import ast
import re
from collections import Counter

from beamcam import scenario as sc
from conftest import REPO_ROOT

SRC = REPO_ROOT / "src" / "beamcam"
TESTS = REPO_ROOT / "tests"

# The scenario writer of the round-trip acceptance checks, which the
# benchmark's workloads also call, not the CLI.
NO_SRC_CALLER = {"serialize_scenario"}

# numpy's random number constructors. A detector stream is made only in the
# pipeline's two noise functions: ``noise_draws`` and its batched form.
RNG_CONSTRUCTORS = {"default_rng", "Generator", "PCG64", "SeedSequence"}
NOISE_FUNCTIONS = {("pipeline.py", "noise_draws"),
                   ("pipeline.py", "sweep_draws")}


def test_every_src_definition_has_a_src_caller():
    """Every top-level function and class in ``src/beamcam``, and every
    method other than a dunder, is used by name somewhere in ``src/``
    besides its own definition: as a name, as an attribute (a method only
    as an attribute), or as a string (a ``getattr`` key). Forms that only
    the tests call belong in ``tests/reference.py``."""
    definitions = []
    names, attributes = Counter(), Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.name, node.name, False))
            if isinstance(node, ast.ClassDef):
                definitions += [(path.name, f"{node.name}.{m.name}", True)
                                for m in node.body
                                if isinstance(m, ast.FunctionDef)
                                and not m.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                attributes[node.attr] += 1
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                attributes[node.value] += 1
    uncalled = []
    for module, name, method in definitions:
        leaf = name.rsplit(".", 1)[-1]
        used = attributes[leaf] or (not method and names[leaf])
        if not used and leaf not in NO_SRC_CALLER:
            uncalled.append(f"{module}: {name}")
    assert uncalled == []


def test_rng_streams_are_made_only_in_the_noise_functions():
    """In ``src/beamcam``, numpy's RNG constructors are named (called,
    referenced or imported) only inside ``pipeline.noise_draws`` and
    ``pipeline.sweep_draws``, so those two are the one place a detector
    stream is made, and both do make one."""
    owners = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [a.name.rsplit(".", 1)[-1] for a in node.names]
                else:
                    continue
                owners += [(path.name, owner, node.lineno, name)
                           for name in names if name in RNG_CONSTRUCTORS]
    outside = [f"{module}:{line}: {name} in {owner}"
               for module, owner, line, name in owners
               if (module, owner) not in NOISE_FUNCTIONS]
    assert outside == []
    assert {(module, owner) for module, owner, _, _ in owners} \
        == NOISE_FUNCTIONS


def test_every_import_is_used():
    """Every name that a module of ``src/beamcam`` or ``tests/`` imports is
    used in that module as a name, or listed in its ``__all__``."""
    unused = []
    for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0],
                                 node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno)
                                for a in node.names)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                used.update(c.value for c in ast.walk(node.value)
                            if isinstance(c, ast.Constant))
        unused += [f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _is_spec_field(node: ast.AnnAssign) -> bool:
    return isinstance(node.value, ast.Call) \
        and isinstance(node.value.func, ast.Name) \
        and node.value.func.id == "_spec"


def _reads(node: ast.AST, owner: str | None = None):
    """(name, owner) of each attribute load and string constant under
    node. ``owner`` is the class whose body encloses a ``self.x`` load, and
    None for every other read."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _reads(child, child.name)
            continue
        if isinstance(child, ast.Attribute) \
                and isinstance(child.ctx, ast.Load):
            is_self = isinstance(child.value, ast.Name) \
                and child.value.id == "self"
            yield child.attr, owner if is_self else None
        elif isinstance(child, ast.Constant) \
                and isinstance(child.value, str):
            yield child.value, None
        yield from _reads(child, owner)


def test_every_dataclass_field_is_read():
    """Every field of a dataclass in ``src/beamcam`` is read somewhere in
    ``src/``: as an attribute, or as a string (a ``getattr`` or dict key).
    A field nothing reads is data the program stores and never uses.

    A ``self.x`` read inside class C counts only toward C's own fields, so
    a homonym in another class proves nothing. A file-backed (``_spec``)
    field of a ``scenario.py`` config class must be read outside
    ``scenario.py``: parsing, bounds checking and serializing there read
    every such field by name through ``dataclasses.fields``."""
    fields, reads = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += [(path.name, node.name, f.target.id,
                            path.name == "scenario.py" and _is_spec_field(f))
                           for f in node.body
                           if isinstance(f, ast.AnnAssign)
                           and isinstance(f.target, ast.Name)]
        reads += [(path.name, name, owner) for name, owner in _reads(tree)]
    assert fields
    assert any(spec for *_, spec in fields)
    unread = [f"{module}: {cls}.{name}" for module, cls, name, spec in fields
              if not any(name == read and owner in (None, cls)
                         and not (spec and where == module)
                         for where, read, owner in reads)]
    assert unread == []


def test_scenario_doc_lists_every_key():
    """The key table of each section of ``docs/scenario_format.md`` lists
    exactly the keys its config class reads from the file: its ``_spec``
    keys, with ``CameraConfig``'s in ``[bs]``."""
    doc = (REPO_ROOT / "docs" / "scenario_format.md").read_text(
        encoding="utf-8")
    tables = {}
    for section in re.split(r"^### ", doc, flags=re.M)[1:]:
        keys = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
        if keys:
            tables[re.match(r"`\[(\w+)", section).group(1)] = set(keys)

    def keys(cls):
        return {spec.key for spec in sc._specs(cls) if spec.kind is not None}

    want = {kind: keys(cls) for kind, (_, cls) in sc._NAMED_SECTIONS.items()}
    want["system"] = keys(sc.SystemParams)
    want["bs"] |= keys(sc.CameraConfig)
    assert tables == want


def _code_words(path) -> set[str]:
    """Every word a Python file defines or names: definitions, arguments,
    names, attributes, imported modules and names, and each word of every
    string (docstrings too)."""
    words = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            words.add(node.name)
        elif isinstance(node, ast.arg):
            words.add(node.arg)
        elif isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module:
            words.update(node.module.split("."))
        elif isinstance(node, ast.alias):
            words.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(re.findall(r"\w+", node.value))
    return words


def test_readme_names_only_existing_code():
    """Every backticked identifier in README.md (a dotted name such as
    ``beamcam.dataset.ROW``, or a call such as ``random()``) names, part by
    part, words that ``src/beamcam`` or ``tests/`` define or use, so the
    README names no code that has gone. A span that is a file of the repo
    is not an identifier."""
    spans = re.findall(r"`([^`\n]+)`",
                       (REPO_ROOT / "README.md").read_text(encoding="utf-8"))
    idents = {span for span in spans
              if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*(\(\))?", span)
              and not (REPO_ROOT / span).exists()}
    words = set().union(*map(_code_words,
                             [*SRC.glob("*.py"), *TESTS.glob("*.py")]))
    assert len(idents) > 50
    stale = sorted(ident for ident in idents
                   if not set(ident.removesuffix("()").split(".")) <= words)
    assert stale == []
