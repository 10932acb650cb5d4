"""Hypothesis strategies that damage a valid JSON document.

The loader tests feed a loader one damaged copy of a document it
accepts and require that it either still accepts it or rejects it with
a :class:`ValueError`: never another exception, so the CLI's
``error: ...`` path covers every bad file.
"""

import copy
import json

from hypothesis import strategies as st

#: Values swapped in for a field: every JSON type, and the numbers a
#: loader must not take for finite ones (NaN, infinities, an int beyond
#: the float range) or for a count (negative, fractional).
JUNK = (None, True, False, 0, -1, 2.5, 10 ** 400, float("nan"),
        float("inf"), float("-inf"), "", "x", [], [1], {}, {"k": 1})


def paths(node, prefix=()):
    """The path (dict keys and list indices) to every value below
    ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def _parent(document, path):
    for key in path[:-1]:
        document = document[key]
    return document


def dropped(document, path):
    """A copy of ``document`` without the value at ``path``."""
    document = copy.deepcopy(document)
    del _parent(document, path)[path[-1]]
    return document


def swapped(document, path, value):
    """A copy of ``document`` with ``value`` at ``path``."""
    document = copy.deepcopy(document)
    _parent(document, path)[path[-1]] = copy.deepcopy(value)
    return document


@st.composite
def mutated(draw, document):
    """``document`` with one value dropped or swapped for junk, or the
    whole of it wrapped in a list."""
    where = list(paths(document))
    action = draw(st.sampled_from(("drop", "swap", "wrap") if where
                                  else ("wrap",)))
    if action == "wrap":
        return [copy.deepcopy(document)]
    path = draw(st.sampled_from(where))
    if action == "drop":
        return dropped(document, path)
    return swapped(document, path, draw(st.sampled_from(JUNK)))


@st.composite
def mutated_lines(draw, records):
    """``records`` as JSON lines with one line damaged: its record
    mutated, its text cut short, or the line left out."""
    lines = [json.dumps(record) for record in records]
    index = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(("mutate", "truncate", "drop")))
    if action == "mutate":
        lines[index] = json.dumps(draw(mutated(records[index])))
    elif action == "truncate":
        lines[index] = lines[index][:draw(
            st.integers(0, len(lines[index]) - 1))]
    else:
        del lines[index]
    return "".join(line + "\n" for line in lines)
