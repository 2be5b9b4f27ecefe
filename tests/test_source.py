"""Properties of the package source itself."""

import ast
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ckshift"


def test_no_bare_asserts():
    # `python -O` strips assert statements; invariant checks must raise
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []


def test_no_unused_imports():
    # every name a module imports at top level is referenced in that module
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue  # re-exports the public names
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders += [f"{path.name}:{line} {name}" for name, line in imported.items()
                      if name not in used]
    assert offenders == []


def test_traced_names_resolve():
    # the benchmark tracer wraps these names by lookup on ckshift, so a
    # rename in the package must not strand an entry of its TARGETS table
    import ckshift
    import ckshift.cli  # noqa: F401  (loads the formats and cli layers)

    tracer = SRC.parent.parent / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"), filename=str(tracer))
    (targets,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)]
    missing = []
    for layer, names in targets.items():
        for qualname in names:
            owner = getattr(ckshift, layer, None)
            for part in qualname.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}.{qualname}")
    assert missing == []


def test_import_loads_no_dataclasses_or_inspect():
    # value types are slotted classes, so the cold start of every CLI call
    # pays neither for `dataclasses` nor for the `inspect` module it loads
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))

    def loaded(statement: str) -> set:
        probe = f"{statement}; import json, sys; print(json.dumps(sorted(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        return set(json.loads(out))

    added = loaded("import ckshift, ckshift.cli") - loaded("pass")
    assert "ckshift.cli" in added
    assert added & {"dataclasses", "inspect"} == set()
    # argv is parsed from a table, so not even a usage error loads argparse
    # or, through it, gettext and locale
    usage_error = loaded("import ckshift, ckshift.cli; ckshift.cli.main(['classify'])")
    assert usage_error & {"argparse", "gettext", "locale"} == set()


def test_clopen_and_semigroup_ask_graphs_not_presentations():
    # structural questions about a graph are answered in graphs, so the
    # clopen and monomial layers never look inside a presentation
    private = {"FiniteGraph", "BlockPatternGraph", "BandedTailGraph", "finite_form",
               "_class_digraph"}
    offenders = []
    for name in ("clopen.py", "semigroup.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)
        offenders += [f"{name}:{node.lineno} {alias.name}" for node in ast.walk(tree)
                      if isinstance(node, (ast.Import, ast.ImportFrom))
                      for alias in node.names if alias.name.split(".")[-1] in private]
    assert offenders == []


def test_only_validating_value_classes_write_a_constructor():
    # Value writes __init__ and __hash__ from the fields, so a value class
    # writes its own constructor only to validate fields or derive slots
    validating = {"FiniteGraph", "BlockPatternGraph", "BandedTailGraph", "Loop",
                  "BoundaryPattern", "MarkovModel", "PeriodicScan", "PartialInjection",
                  "ConjugacyPair"}
    values, written = {"Value"}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    getattr(base, "id", None) in values for base in node.bases):
                values.add(node.name)
                written += [(node.name, fn.name) for fn in node.body
                            if isinstance(fn, ast.FunctionDef)
                            and fn.name in ("__init__", "__hash__")]
    assert len(values) == 1 + 29
    assert sorted(written) == sorted((name, "__init__") for name in validating)
