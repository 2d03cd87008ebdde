"""Readers that accept exactly what their writers write.

``cli`` and ``harness`` both decorate their document readers with
``inverts``; it lives here so that neither has to import the other.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Callable


def inverts(write: Callable[[Any], object]):
    """Decorate a reader of ``write``'s documents.  The reader converts each
    leaf to the type ``write`` emits and builds the object.  The decorated
    reader returns it if ``write`` gives the document back exactly (the same
    JSON text: 1, 1.0 and true differ, "ab" is not ["a", "b"], NaN is never
    written), and raises ValueError otherwise, for a malformed shape too.
    """
    def decorate(read):
        @functools.wraps(read)
        def read_back(doc):
            try:
                value = read(doc)
                written, given = (json.dumps(o, sort_keys=True, allow_nan=False)
                                  for o in (write(value), doc))
            except (KeyError, IndexError, TypeError, AttributeError, OverflowError) as exc:
                raise ValueError(f"not a written document: {type(exc).__name__}: {exc}") from None
            if written != given:
                raise ValueError(f"document differs from its written form {written[:200]}")
            return value
        return read_back
    return decorate
