"""README's "Library quick tour" runs as written.

The block is read from README.md and executed; its last line prints the
frame ratio of the unit ball against the Haar system, which must be 1 to
1e-12.
"""

import contextlib
import io
import os

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")


def _quick_tour() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_tour_prints_a_frame_ratio_of_one():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_tour(), "README.md", "exec"), {})
    *_, last = out.getvalue().splitlines()
    assert abs(float(last) - 1.0) <= 1e-12
