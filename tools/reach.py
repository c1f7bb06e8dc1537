"""Executable lines of the package that the tier-1 suite and the CLI digest never run.

    python tools/reach.py [TREE] > tools/unreached.txt

TREE (default ``.``) is the root of an lfmspec checkout.  The package is
imported from its ``src``; its ``tests`` run under pytest and then
``tools/cli_digest.py`` runs every CLI form on its corpus, all in this one
process under a ``sys.settrace`` hook that records line events only in
frames whose code lives in ``src/lfmspec`` (test subprocesses are not
traced).  The executable lines are those of ``co_lines()`` over every code
object, nested ones included, compiled from each module's source.  One line

    src/lfmspec/FILE QUALNAME: SOURCE

is printed for each executable line that never ran, in file and line order,
keyed by its function and text rather than its number, so that an edit
elsewhere in a file leaves the key unchanged.  The tool exits 1 when the
suite fails or a digest run escapes ``cli.main``.  Line tables differ between
interpreter versions, so compare lists made by the same minor version.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import io  # noqa: E402
import contextlib  # noqa: E402


def executable(path: str) -> dict[int, str]:
    """Line number -> qualified name of the innermost code object that runs it."""
    with open(path, encoding="utf-8") as fh:
        todo = [(compile(fh.read(), path, "exec"), "")]
    lines: dict[int, str] = {}
    while todo:
        code, name = todo.pop()
        for _, _, line in code.co_lines():
            if line:  # 0 is the module prologue
                lines.setdefault(line, name or "<module>")
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                todo.append((const, (name + "." if name else "") + const.co_name))
    return lines


def main(argv: list[str]) -> int:
    tree = os.path.abspath(argv[0] if argv else ".")
    pkg = os.path.join(tree, "src", "lfmspec")
    sys.path[:0] = [os.path.join(tree, "src"), os.path.dirname(os.path.abspath(__file__))]
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(pkg + os.sep) else None

    import pytest
    import cli_digest

    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            failed = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(tree, "tests")])
        with contextlib.redirect_stdout(io.StringIO()):
            escaped = cli_digest.digests(tree, print)
    finally:
        sys.settrace(None)
    for name in sorted(os.listdir(pkg)):
        path = os.path.join(pkg, name)
        if name.endswith(".py"):
            with open(path, encoding="utf-8") as fh:
                source = fh.read().splitlines()
            for line, qualname in sorted(executable(path).items()):
                if (path, line) not in ran:
                    print("src/lfmspec/%s %s: %s" % (name, qualname, source[line - 1].strip()))
    return 1 if failed or escaped else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
