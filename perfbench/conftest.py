import sys
from pathlib import Path

# The benchmark's modules import the fuzzyrel sources of this checkout.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
