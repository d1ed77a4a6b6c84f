"""The demo scripts' standard output, pinned: a change that claims
identical output must leave these files valid.  Regenerate a file with
`PYTHONPATH=src python demos/NAME.py > tests/data/demos/NAME.txt`."""

import pathlib
import runpy

import pytest

_ROOT = pathlib.Path(__file__).parent.parent
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    goldens = sorted((_ROOT / "tests" / "data" / "demos").glob("*.txt"))
    assert [p.stem for p in goldens] == [p.stem for p in _DEMOS]
    assert len(_DEMOS) == 5


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    golden = _ROOT / "tests" / "data" / "demos" / f"{demo.stem}.txt"
    assert capsys.readouterr().out == golden.read_text()
