"""Imports run one way: ``abi ← core ← net ← fmtserv ← tools``.

Each system layer imports only the layers to its left.  The paper's
apparatus (``wire``, ``vcode``, ``workloads``) may import the system; the
system never imports it.  Stated twice: statically over the source tree,
and by what fresh interpreters actually load.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "repro"

LAYERS = ("abi", "core", "net", "fmtserv", "tools")
APPARATUS = ("wire", "vcode", "workloads")
TOOLS = ("layout_tool", "dump_tool", "fsck_tool", "fmtserv_tool", "wal_tool", "fabric_tool")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path):
    """Yield ``(imported module, lineno)`` for every import outside an
    ``if TYPE_CHECKING:`` block, relative ones resolved."""
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]

    def walk(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and "TYPE_CHECKING" in ast.unparse(child.test):
                yield from walk(ast.Module(body=child.orelse, type_ignores=[]))
                continue
            if isinstance(child, ast.Import):
                for alias in child.names:
                    yield alias.name, child.lineno
            elif isinstance(child, ast.ImportFrom):
                if child.level:
                    base = package.split(".")[: len(package.split(".")) - child.level + 1]
                    if child.module:
                        yield ".".join(base + [child.module]), child.lineno
                    else:
                        for alias in child.names:
                            yield ".".join(base + [alias.name]), child.lineno
                else:
                    yield child.module, child.lineno
            yield from walk(child)

    yield from walk(ast.parse(path.read_text()))


def _layer(module: str) -> str | None:
    parts = module.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else None


def test_no_system_import_goes_up_or_into_the_apparatus():
    wrong = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        source = _layer(module)
        if source not in LAYERS:
            continue
        for target, lineno in _imports(path):
            dest = _layer(target)
            if dest is None or dest == source:
                continue
            if dest in APPARATUS or LAYERS.index(dest) > LAYERS.index(source):
                wrong.append(f"{module}:{lineno} imports {target}")
    assert not wrong, "imports that go up the layer order:\n" + "\n".join(wrong)


def test_the_root_package_imports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [n.lineno for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert imports == [], f"repro/__init__.py imports at lines {imports}"


def _fresh_interpreter(script: str, *args: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, check=False
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


_STAGES = """
import importlib, json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
stages = {}
import repro
stages["repro"] = loaded()
import repro.core
stages["core"] = loaded()
for name in sys.argv[1:]:
    importlib.import_module(name)
stages["system"] = loaded()
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def stages():
    return _fresh_interpreter(_STAGES, "repro.net", "repro.fmtserv", *(f"repro.tools.{t}" for t in TOOLS))


def _layers_of(modules) -> set:
    return {_layer(m) for m in modules} - {None}


def test_import_repro_loads_only_repro(stages):
    assert stages["repro"] == ["repro"]


def test_import_repro_core_loads_no_layer_above_it(stages):
    assert _layers_of(stages["core"]) <= {"abi", "core"}


def test_the_whole_system_loads_no_apparatus(stages):
    assert _layers_of(stages["system"]) <= set(LAYERS)


def test_transport_imports_first_and_alone():
    loaded = _fresh_interpreter(
        "import json, sys\nimport repro.net.transport\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.'))))"
    )
    assert _layers_of(loaded) <= {"abi", "core", "net"}


@pytest.mark.parametrize(
    "name", ("TransportError", "PeerClosedError", "TransportTimeout", "WriteQueueFull", "PeerUnresponsive")
)
def test_the_transport_errors_are_cores_and_net_reexports_them(name):
    from repro.core import errors
    from repro.net import transport

    assert getattr(transport, name) is getattr(errors, name)
    assert issubclass(getattr(errors, name), RuntimeError)
    assert not issubclass(getattr(errors, name), errors.PbioError)
