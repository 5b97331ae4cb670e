"""Count the options of the nearrep package: parameters that have a default.

Every function and lambda under src/nearrep is read with `ast` (nothing is
imported), and each parameter with a default value counts once, positional
or keyword-only, public or private. Dataclass fields are not parameters and
do not count. Prints one line per module and the total:

    cli 2
    ...
    total 36

Usage: python scripts/option_count.py
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nearrep"


def count_options(path: Path) -> int:
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, functions))


def main() -> None:
    counts = {path.stem: count_options(path) for path in sorted(PACKAGE.glob("*.py"))}
    for module, n in counts.items():
        print(f"{module} {n}")
    print(f"total {sum(counts.values())}")


if __name__ == "__main__":
    main()
