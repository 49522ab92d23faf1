import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
for path in (str(TESTS.parent / "src"), str(TESTS)):
    if path not in sys.path:
        sys.path.insert(0, path)
