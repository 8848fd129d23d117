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


def test_a_datum_mutation_is_found_through_a_config_entry(tmp_path):
    shutil.copytree(Path(SRC) / "milstab", tmp_path / "milstab")
    with open(tmp_path / "milstab" / "cli.py", "a", encoding="utf-8") as fh:
        # simulate still builds the datum, but drops its log-modulus
        fh.write(
            "\nclass InitialDatum(InitialDatum):\n"
            "    def log_modulus(self):\n"
            "        return 0.0\n"
        )
    # the default datum (1, 0) has log-modulus 0, so only a config entry finds it
    sim = "simulate --steps 3 --paths 2"
    matrix = [sim, (f"{sim} --config c.json", {"x0": 3, "y0": 4})]
    assert cli_bytes.compare(SRC, str(tmp_path), matrix) == [
        f'{sim} --config c.json with c.json {{"x0": 3, "y0": 4}}: stdout differ'
    ]
