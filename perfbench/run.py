"""One benchmark for PathDump's whole query trip.

Usage, from the repository root::

    python3 perfbench/run.py --workload fanout_serial --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``fanout_serial``, ``fanout_socket`` and ``two_tier`` (see
``workloads.py`` and ``README.md``).  The program under test is the
``repro`` package in ``src/``; the run fails with a non-zero exit code when
it is missing.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
