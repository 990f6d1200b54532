"""Record the smile-gen reference: the kept knots and vols of every smile
in the workload catalogue, as the library produces them now.

    python3 perfbench/record_reference.py

Run from the root of a source checkout.  The benchmark compares each
regenerated smile with this file (identical kept knots, vols to a relative
1e-9), so re-record only when a change to the library's smiles is meant.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    smiles = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        ctx = workloads.Context(Path(tmp))
        path = Path(tmp) / "smile.csv"
        for spec in workloads.smile_catalogue():
            out = workloads.produce_smile(ctx, spec, path)
            if isinstance(out, workloads.CliRun) and out.rc != 0:
                print(f"error: {spec.key}: exit {out.rc}: {out.stderr}",
                      file=sys.stderr)
                return 1
            xs, vols = workloads.smile_knots(out, path)
            smiles[spec.key] = {"x": xs, "vol": vols}
            print(f"{spec.key}: {len(xs)} knots", flush=True)
    doc = {"smiles": smiles}
    workloads.REFERENCE.write_text(json.dumps(doc, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
