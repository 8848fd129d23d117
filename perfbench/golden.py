"""Record the sha256 of every simulate-out output for a range of seeds.

    python3 perfbench/golden.py FIRST LAST

Writes perfbench/golden_sha256.json, which run.py checks simulate-out
outputs against whenever the run's seed is recorded there. Run it only at a
commit whose outputs are known good: the CLI promises byte-identical output
for the same arguments, so a later digest mismatch is a regression.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import milstab.cli  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden_sha256.json"


def digests(seed: int, workdir: Path) -> dict:
    out = {}
    for inv in WORKLOADS["simulate-out"].script(seed, workdir):
        if inv.key in out:
            continue
        with contextlib.redirect_stdout(io.StringIO()):
            if milstab.cli.main(list(inv.argv)) != 0:
                raise RuntimeError(f"{inv.label} failed at seed {seed}")
        path = Path(inv.out)
        out[inv.key] = hashlib.sha256(path.read_bytes()).hexdigest()
        path.unlink()
    return out


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    table = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for seed in range(first, last + 1):
            table[str(seed)] = digests(seed, Path(tmp))
    ordered = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    GOLDEN.write_text(json.dumps(ordered, indent=1, sort_keys=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
