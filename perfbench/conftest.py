import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The benchmark imports the package from this checkout, as run.py does.
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
