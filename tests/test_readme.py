"""The README's library example prints the line its last comment shows.

Run as a script, `python tests/test_readme.py` runs the example against the
`sgp` that the interpreter imports (an installed package, when run from
outside the checkout), prints what it printed, and exits 1 on a mismatch.
"""

import contextlib
import io
import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example(text: str) -> tuple[str, str]:
    """(code, expected stdout) of the first python block under '## Library example'.

    The block's last line is '# ' followed by the line the code prints.
    """
    section = text.split("\n## Library example\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    *code, last = block.rstrip("\n").split("\n")
    if not last.startswith("# "):
        raise ValueError("the library example does not end with its output line")
    return "\n".join(code) + "\n", last[2:] + "\n"


def run_example(code: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    return out.getvalue()


def test_library_example_prints_its_documented_output():
    code, expected = library_example(README.read_text(encoding="utf-8"))
    assert run_example(code) == expected


if __name__ == "__main__":
    code, expected = library_example(README.read_text(encoding="utf-8"))
    printed = run_example(code)
    print(printed, end="")
    sys.exit(printed != expected)
