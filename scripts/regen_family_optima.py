#!/usr/bin/env python3
"""Regenerate tests/goldens/family_optima.json: HiGHS's optimum of each
member of the mid-size instance family (`family_models` in
tests/conftest.py), so that tests can check the exact search against it
without scipy.

Needs scipy.  Run from the repository root after an intentional change to
the family; inspect the diff before committing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from conftest import FAMILY_OPTIMA, family_models, highs_optimum

# members whose exact solves spend their time completing leaves, not
# searching nodes; measured, not derived, so the list is kept by hand
LEAF_BOUND = [2, 9]


def main() -> int:
    doc = {"family": "family_models() in tests/conftest.py, numbered from 0",
           "leaf_bound": LEAF_BOUND,
           "optima": [highs_optimum(model) for model in family_models()]}
    FAMILY_OPTIMA.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {FAMILY_OPTIMA}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
