"""Exit 0 only when the twoquadrics JSON report on stdin has claims and every
claim's ``ok`` is true; print how many passed either way.

    python -m twoquadrics fiber --m 320 --format json | python3 .github/scripts/claims_ok.py
"""

import json
import sys

report = json.load(sys.stdin)
claims = [c for s in report["sections"] for c in s["claims"]]
print("claims ok:", sum(c["ok"] is True for c in claims), "of", len(claims))
sys.exit(0 if claims and all(c["ok"] is True for c in claims) else 1)
