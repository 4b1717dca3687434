"""Time `import rpim` and loading its C engine in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR

Prints one JSON object: import_s, load_s and the engine that loaded
("c", or "python" when the C engine could not be built or loaded).  The
build cache is wherever XDG_CACHE_HOME points.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import rpim  # noqa: E402

imported = time.perf_counter()
lib = rpim._kernel.load()
loaded = time.perf_counter()
print(json.dumps({"import_s": imported - start, "load_s": loaded - imported,
                  "engine": "python" if lib is None else "c"}))
