"""tools/src_size.py, on which the package's size figures rest, lists every module with its true line count."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_src_size_lists_every_module_with_its_line_count():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_size.py")], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out[0].split() == ["lines", "code", "module"]
    rows = {name: (int(lines), int(code)) for lines, code, name in (line.split() for line in out[1:])}
    total = rows.pop("total")
    modules = sorted(ROOT.glob("src/filterlab/*.py"))
    assert sorted(rows) == [path.name for path in modules]
    for path in modules:
        lines, code = rows[path.name]
        assert lines == len(path.read_text(encoding="utf-8").splitlines()), path.name
        assert 0 < code <= lines, path.name
    assert total == tuple(map(sum, zip(*rows.values())))
