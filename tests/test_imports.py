import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Run in a fresh interpreter, so modules that the tests or pytest loaded do
# not hide what the package itself needs.
PROBE = f"""
import sys
before = set(sys.modules)
sys.path.insert(0, {str(SRC)!r})
import ranksieve, ranksieve.cli
main = sys.modules["__main__"]
# multiprocessing registers __main__ again under the name __mp_main__
loaded = {{name for name in set(sys.modules) - before if sys.modules[name] is not main}}
print("\\n".join(sorted({{name.split(".")[0] for name in loaded}})))
"""


def test_package_imports_only_numpy_and_the_standard_library():
    out = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    loaded = set(out.split())
    assert {"numpy", "ranksieve"} <= loaded
    assert loaded - set(sys.stdlib_module_names) - {"numpy", "ranksieve"} == set()
