"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependency, so every module under
``src/repro`` must import, and the CLI must start, in an interpreter that
sees nothing but the standard library and ``src``.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, pkgutil, sys
sys.path.insert(0, {src!r})
import repro
names = []
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name.rsplit(".", 1)[-1] != "__main__":
        __import__(info.name)
        names.append(info.name)
print(json.dumps(sorted(names)), flush=True)
from repro.cli import main
try:
    code = main(["--help"])
except SystemExit as exc:
    code = exc.code
sys.exit(code)
"""


def module_names():
    """Every module under ``src/repro`` but the package itself and
    ``__main__``, named from the file tree."""
    names = []
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        if parts[-1] != "__main__" and len(parts) > 1:
            names.append(".".join(parts))
    return sorted(names)


def test_runtime_imports_only_the_standard_library():
    # -I drops PYTHONPATH, the user site and the working directory from
    # sys.path; -S drops site-packages.  What is left is the standard
    # library, plus the src directory the probe inserts.  -I also ignores
    # PYTHONDONTWRITEBYTECODE, so -B keeps the probe from writing
    # bytecode caches into the checkout.
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c",
         PROBE.format(src=str(SRC))],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    imported = json.loads(proc.stdout.splitlines()[0])
    assert imported == module_names()
    assert "usage: repro" in proc.stdout
