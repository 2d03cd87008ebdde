"""Written JSON documents changed in one place, for the reader properties.

A reader must refuse with ValueError every document its writer does not
write, and give back exactly the document it read otherwise.
``assert_refused_or_read_back`` checks that for one document that
``perturbed`` changed: one value replaced by another JSON value (the whole
document included), or one key of an object dropped or added.
"""

from __future__ import annotations

import json

from hypothesis import strategies as st

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

#: Added keys: short text, or a key that some other document carries.  No
#: key is one a reader leaves unread (the classification keys of a table).
KEYS = st.text(max_size=6) | st.sampled_from(["l", "b", "rows", "trace", "kind", "outputs"])


def _places(doc, path=()):
    """The path to every value of ``doc``, the root included."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _places(value, path + (key,))


@st.composite
def perturbed(draw, doc):
    doc = json.loads(json.dumps(doc))  # a private copy
    path = draw(st.sampled_from(list(_places(doc))))
    parent, node = None, doc
    for key in path:
        parent, node = node, node[key]
    action = draw(st.sampled_from(["replace", "drop", "add"] if isinstance(node, dict)
                                  else ["replace"]))
    if action == "replace":
        value = draw(JSON_VALUES)
        if parent is None:
            return value
        parent[path[-1]] = value
    elif action == "drop" and node:
        del node[draw(st.sampled_from(sorted(node)))]
    else:
        node[draw(KEYS)] = draw(JSON_VALUES)
    return doc


def assert_refused_or_read_back(read, write, doc):
    """``read(doc)`` raises ValueError, or ``write`` gives ``doc`` back:
    equal JSON texts, so that 1, 1.0 and true count as different."""
    try:
        value = read(doc)
    except ValueError:
        return
    assert json.dumps(write(value), sort_keys=True) == json.dumps(doc, sort_keys=True)
