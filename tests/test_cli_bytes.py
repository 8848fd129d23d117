"""tools/cli_bytes.py finds each CLI run whose bytes differ between two trees."""

import importlib.util
import shutil
from pathlib import Path

import milstab

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_bytes.py"
_spec = importlib.util.spec_from_file_location("cli_bytes", TOOL)
cli_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_bytes)

SRC = str(Path(milstab.__file__).resolve().parents[1])
#: One run that writes a result and one refused before any write.
MATRIX = ["region --sigma-range 0:2:1 --out r.csv", "region --sigma-range 1:0:1"]


def test_a_tree_against_itself_has_no_differences():
    assert cli_bytes.compare(SRC, SRC, MATRIX) == []


def test_one_extra_byte_in_a_write_is_found(tmp_path):
    shutil.copytree(Path(SRC) / "milstab", tmp_path / "milstab")
    with open(tmp_path / "milstab" / "cli.py", "a", encoding="utf-8") as fh:
        # every write, through the one writer, gains one trailing byte
        fh.write(
            "\n_one_write = _write\n"
            "_write = lambda pieces, out=None: _one_write([*pieces, 'x'], out)\n"
        )
    assert cli_bytes.compare(SRC, str(tmp_path), MATRIX) == [f"{MATRIX[0]}: files differ"]
