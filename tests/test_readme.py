import importlib
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# One row of the README tolerance table: | `NAME` | `module` | value | ... |
ROW = re.compile(r"\| `(\w+)` \| `(\w+)` \| ([^|]+?) \|")


def test_tolerance_table_matches_the_code():
    text = README.read_text(encoding="utf-8")
    table = text.split("## Tolerances", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    assert rows
    for line in rows:
        name, module, value = ROW.match(line).groups()
        actual = getattr(importlib.import_module(f"nsgate.{module}"), name)
        assert actual == float(value), f"README: {name} = {value}, code: {actual}"


# A backticked private name (`_NAME`) or nsgate module attribute (`fock._name`).
MODULES = ("fock", "conditional", "gate", "bounds", "cli")
REFERENCE = re.compile(rf"`(?:({'|'.join(MODULES)})\.(\w+)|(_\w+))`")


def test_named_code_exists():
    text = README.read_text(encoding="utf-8")
    modules = {name: importlib.import_module(f"nsgate.{name}") for name in MODULES}
    refs = REFERENCE.findall(text)
    assert refs
    for module, attr, private in refs:
        if module:
            assert hasattr(modules[module], attr), f"README: no {module}.{attr}"
        else:
            found = any(hasattr(m, private) for m in modules.values())
            assert found, f"README: no {private} in any nsgate module"
