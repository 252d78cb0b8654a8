"""The package exports the paper's pipeline: fit one set (``fit_trajectory``),
carry its operator by ``R(g) K R(g)^-1`` (``Dictionary.representation``),
check the image sets (``verify_invariant_set_images``). Seven older names
stay only as attributes of their modules, because the benchmark under
``perfbench/`` binds them there. This test reads the benchmark's files and
never changes them."""

import ast
import importlib
from pathlib import Path

import symkoop

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# name -> the symkoop module that defines it
BENCHMARK_ONLY = {
    "SnapshotPairs": "dynamics",
    "snapshots": "dynamics",
    "lift": "dictionaries",
    "FeatureRepresentation": "dictionaries",
    "induced_representation": "dictionaries",
    "transform_snapshots": "groups",
    "verify_invariant_set_image": "equivariant",
}


def tracer_targets():
    """Every "module.attr" in the tracer's TARGETS table."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["TARGETS"])
    return [entry.elts[0].value for entry in table.elts]


def workload_reads():
    """Every "module.attr" the workloads read from the symkoop modules they
    import."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "symkoop"
               for alias in node.names}
    return sorted({f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


def test_benchmark_bindings_resolve_and_the_package_exports_none_of_its_own():
    bindings = tracer_targets() + workload_reads()
    assert "dynamics.snapshots" in bindings and "dictionaries.lift" in bindings
    bindings += [f"{module}.{name}" for name, module in BENCHMARK_ONLY.items()]
    unresolved = []
    for binding in bindings:
        module, attr = binding.rsplit(".", 1)
        if not hasattr(importlib.import_module(f"symkoop.{module}"), attr):
            unresolved.append(binding)
    assert unresolved == []
    assert [name for name in BENCHMARK_ONLY if hasattr(symkoop, name)] == []
