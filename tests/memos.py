"""Empty every memo of the package, so that a test can run commands from
cold caches.  The memos are found by scanning the loaded `b2dunkl`
modules for `cache_clear`, so a memo added later is cleared too."""

import sys


def clear_memos() -> None:
    for name, mod in list(sys.modules.items()):
        if name == "b2dunkl" or name.startswith("b2dunkl."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
