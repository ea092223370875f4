"""List the statements of ``src/carqte`` that no test reaches.

Usage (from the repository root)::

    python3 bench/reach.py                      # Tier-1: every test under tests/
    python3 bench/reach.py --out reach.txt -- tests/test_cli.py -k pi

Runs pytest in this process under ``sys.settrace`` and ``threading.settrace``
(so the fit's and the bootstrap's helper threads count too), records the
lines that run in ``src/carqte``, and prints, file by file, every statement
whose first line or header never ran, then a total.  A statement with no
bytecode of its own (a docstring, a bare ``try:``) is not counted.  Code
that runs only in a subprocess (the CLI tests that start ``python -m
carqte.cli``) or in a forked worker of ``simulate --workers`` is not seen.
Only the standard library is used; tracing makes the tests several times
slower.  pytest runs with a fixed ``--hypothesis-seed``, so the fuzz tests
draw the same examples and the totals repeat from run to run.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "carqte"
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--hypothesis-seed=0"]


def code_lines(code) -> set[int]:
    """Lines that hold bytecode in ``code`` and every code object nested in it."""
    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(source: str) -> list[tuple[int, range]]:
    """(first line, header lines) of every statement and ``except`` clause.

    A simple statement's header is all its lines; a compound one's runs from
    its first decorator to the line before its body.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.stmt, ast.excepthandler)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(body[0].lineno - 1, node.lineno) if body else node.end_lineno
        out.append((node.lineno, range(first, last + 1)))
    return sorted(out, key=lambda item: item[0])


def trace_pytest(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``args`` under the tracer; (exit code, lines run per file)."""
    wanted = {str(p): set() for p in sorted(PACKAGE.glob("*.py"))}

    def local(frame, event, arg):
        if event == "line":
            wanted[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename in wanted else None

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = int(pytest.main(args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, wanted


def report(ran: dict[str, set[int]]) -> tuple[list[str], int, int]:
    """Report lines, and the never-run and total statement counts."""
    lines, missed_all, total_all = [], 0, 0
    for path, hit in ran.items():
        source = Path(path).read_text(encoding="utf-8")
        text = source.splitlines()
        live = code_lines(compile(source, path, "exec"))
        measured = [(first, head) for first, head in statements(source)
                    if any(line in live for line in head)]
        missed = [first for first, head in measured if not any(line in hit for line in head)]
        missed_all += len(missed)
        total_all += len(measured)
        rel = Path(path).relative_to(ROOT)
        lines.append(f"{rel}: {len(missed)} of {len(measured)} statements never ran")
        lines += [f"  {first}: {text[first - 1].strip()}" for first in missed]
    return lines, missed_all, total_all


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", type=Path, default=None, help="also write the report here")
    ap.add_argument("pytest_args", nargs="*", help="after --: pytest arguments (Tier-1 if none)")
    args = ap.parse_args(argv)
    os.chdir(ROOT)  # pytest finds tests/ and pyproject.toml from the root
    start = time.perf_counter()
    code, ran = trace_pytest(TIER1 + args.pytest_args)
    lines, missed, total = report(ran)
    lines.append(f"total: {missed} of {total} statements never ran "
                 f"(pytest exit {code}, {time.perf_counter() - start:.0f} s)")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
