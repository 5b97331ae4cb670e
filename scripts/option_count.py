"""Count the options of the nearrep package: parameters and fields that have a default.

Every function and lambda under src/nearrep is read with `ast` (nothing is
imported), and each parameter with a default value counts once, positional
or keyword-only, public or private, `__init__` methods of plain classes
included. Prints one line per module and the total of those parameters,
then on its own line the dataclass fields that take a default through the
generated __init__ (`field(init=False)` and a `field()` with no default are
not options), then the two kinds of knob a user sets without
calling the library: the scenario keys the schema in cli.py declares (its
`_Key(...)` calls) and the `--` flags its build_parser adds:

    cli 2
    ...
    total 13
    fields 9
    schema_keys 50
    flags 4

Usage: python scripts/option_count.py
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nearrep"


def count_options(tree: ast.Module) -> int:
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree) if isinstance(node, functions))


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _is_init_default(value: ast.expr) -> bool:
    """Whether a dataclass field's assigned value gives __init__ a default."""
    if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"):
        return True
    keywords = {k.arg: k.value for k in value.keywords}
    init = keywords.get("init")
    if isinstance(init, ast.Constant) and init.value is False:
        return False
    return "default" in keywords or "default_factory" in keywords


def count_fields(tree: ast.Module) -> int:
    return sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
               and _is_init_default(stmt.value)
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and _is_dataclass(node)
               for stmt in node.body)


def count_schema_keys(tree: ast.Module) -> int:
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "_Key" for node in ast.walk(tree))


def count_flags(tree: ast.Module) -> int:
    build = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "build_parser")
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "add_argument"
               and any(isinstance(a, ast.Constant) and str(a.value).startswith("--")
                       for a in node.args)
               for node in ast.walk(build))


def main() -> None:
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    counts = {module: count_options(tree) for module, tree in trees.items()}
    for module, n in counts.items():
        print(f"{module} {n}")
    print(f"total {sum(counts.values())}")
    print(f"fields {sum(count_fields(tree) for tree in trees.values())}")
    print(f"schema_keys {count_schema_keys(trees['cli'])}")
    print(f"flags {count_flags(trees['cli'])}")


if __name__ == "__main__":
    main()
