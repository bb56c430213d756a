"""The README's library quick start runs as written and gives the numbers
its comments state."""
import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs_and_gives_its_stated_numbers():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    scope = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(blocks[0], str(README), "exec"), scope)
    # "scales.d0 ~ 13.7 um" and "0.1 s", to the digits stated
    assert scope["scales"].d0 == pytest.approx(13.7e-6, abs=0.05e-6)
    assert scope["report"].t_d == pytest.approx(0.1, abs=0.005)
    assert out.getvalue().startswith(repr(scope["report"].t_d) + " ")
