"""The on-disk formats themselves: pinned bytes and the one module that frames them.

The pipeline checks compare two runs of the same code, so a change to a
writer's layout would pass them. These tests pin the sha256 of a tiny fixed
file of each format, and check that only data.py opens files or unpacks
header fields, so every framing decision lives in one module, and that only
model.py builds ParamBlocks, so the parameter layout does too. A last guard
keeps the package free of helpers that only tests call.
"""

import ast
import hashlib
import pathlib

import numpy as np
import pytest

from openset import data, model, splits

SRC = pathlib.Path(data.__file__).parent

# each file built from numpy's generator and integer draws alone, no BLAS
# call, so its bytes do not depend on the machine
GOLDEN = {
    "features.osf": "a03aba87300e31bb8f8eb43a0253a7868ef60c5c524b199abaf763a83659df99",
    "labels.osl": "39cab571487c187f21c957d3eb6c038def596e0b946f5f0cac36475a0cbccc37",
    "ve.osm": "5f2bfe4c30d2ad1a132f8c8688f265862121ec815a16e084e6e7b5321e0019bc",
    "je.osm": "5327b53b46f3cbd2c12f426e2848e22d13dad6e24cf594c749d5fa65cfd76475",
    "class_table.csv": "62ab64f6e6be119abeaa07c9f8bc68c3dfec42f33e3c34fa28e25e50cefd78b4",
    "split.csv": "f2d8539f422c75870498ac8360a19cd2ebcf0c64c56fbe91de287d68454bd741",
}


def _write_golden(name: str, path: str) -> None:
    rng = np.random.default_rng(14)
    table = data.ClassTable({
        cid: data.ClassEntry(cid, v, n, f"verb{v}", f"noun{n}", 2)
        for cid, (v, n) in enumerate((v, n) for v in range(4) for n in range(4))
    })
    if name == "features.osf":
        feats = rng.standard_normal((5, 2, 3))
        data.write_features(path, np.arange(5) * 3, [0, 0, 2, 7, 15], feats)
    elif name == "labels.osl":
        data.write_labels(path, {cid: rng.standard_normal(4) for cid in (3, 0, 9)})
    elif name.endswith(".osm"):
        method = name[:2].upper()
        cfg = model.ModelConfig(method, input_dim=3, hidden_dim=2, embed_dim=4, label_dim=4)
        model.save_checkpoint(path, model.init_model(cfg, seed=2))
    elif name == "class_table.csv":
        data.write_class_table(path, table)
    else:
        spec = splits.SplitSpec(p_verbs=1, p_nouns=1, seed=3)
        splits.write_split(path, splits.generate_split(table, spec))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_written_bytes_match_pinned_digest(tmp_path, name):
    path = tmp_path / name
    _write_golden(name, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[name]


def _file_access(module: pathlib.Path) -> list[str]:
    """Each call that opens a file and each struct import in a module's source."""
    found = []
    for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("open", "fdopen", "read_bytes", "write_bytes", "write_text"):
                found.append(f"{module.name}:{node.lineno}: {name}()")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                a.name for a in node.names]
            if "struct" in names:
                found.append(f"{module.name}:{node.lineno}: import struct")
    return found


def test_only_data_module_opens_files_or_unpacks_headers():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "data.py")
    assert modules, "no package modules found"
    assert [hit for p in modules for hit in _file_access(p)] == []
    # the guard sees what it is looking for
    assert _file_access(SRC / "data.py")


def _param_block_calls(module: pathlib.Path) -> list[str]:
    """Each call of ParamBlock in a module's source."""
    return [
        f"{module.name}:{node.lineno}: ParamBlock()"
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "ParamBlock" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_only_model_module_builds_param_blocks():
    # the parameter layout is decided where the views are made
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "model.py")
    assert modules, "no package modules found"
    assert [hit for p in modules for hit in _param_block_calls(p)] == []
    # the guard sees what it is looking for
    assert _param_block_calls(SRC / "model.py")


def _unreferenced(defining: list[str], using: list[str]) -> list[str]:
    """Each function or method defined in the `defining` sources whose name
    appears in no source of `using` except as its own def: not as a name, an
    attribute, or a string naming it (getattr, a tracer's wrap list).
    Dunder methods are called by Python itself and are skipped."""
    seen = set()
    for text in using:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                seen.add(node.value)
    return [
        f"{node.lineno}: {node.name}"
        for text in defining
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in seen
    ]


def test_every_package_function_has_a_caller_outside_the_tests():
    package = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    harness = SRC.parent.parent / "perfbench"
    benchmark = [p.read_text(encoding="utf-8") for p in sorted(harness.glob("*.py"))]
    assert package and benchmark, "package or benchmark sources not found"
    # np.random.PCG64 is a caller too: it seeds itself through the
    # ISeedSequence that episodic hands it, with this call
    numpy_calls = "seed_seq.generate_state(4, np.uint64)\n"
    assert _unreferenced(package, package + benchmark + [numpy_calls]) == []
    # the guard sees what it is looking for
    source = "def used():\n    pass\n\ndef lonely():\n    used()\n"
    assert _unreferenced([source], [source]) == ["4: lonely"]
