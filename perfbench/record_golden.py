"""Record the golden values the benchmark checks results against.

    python3 perfbench/record_golden.py

Run from the root of a checkout whose analyzer output is the reference;
writes perfbench/golden.json: the SHA-256 of every corpus protocol's
`analyze --json` payload, and the exact hitting times of the oracle-check
sweep (the values from the initial configurations, and a digest of all).
"""

import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    lib = workloads.import_stagebound()
    size = workloads.FULL
    golden = {"analyze": {}, "hitting": {}}
    parsed = workloads.parse_inputs("analyze-corpus", lib, size)
    for op in workloads.make_ops("analyze-corpus", lib, parsed, None, size, None, 0):
        golden["analyze"][op.name] = op.run()["sha256"]
    for name, ns in size["hitting"]:
        for n in ns:
            op = workloads.hitting_op(lib, parsed[name][1], n, name, None)
            golden["hitting"][workloads.hitting_key(name, n)] = op.run()
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
