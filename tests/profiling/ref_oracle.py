"""Reference ref extraction: every public instance attribute, unfiltered.

It is the extractor snapshots used before they read only the properties
a policy's ``in ref(...)`` atoms name.  It states what restricted
extraction must equal on each named property: instance attributes only
(never class attributes or descriptors), no ``_``-prefixed names and not
the injected ``ref``, and no entry for a property that holds no ref.
"""

from repro.core.profiling import ProfilingRuntime
from repro.core.profiling.snapshot import EMPTY

#: Exact types of attribute values that plainly hold no actor ref.
_NEVER_REFS = frozenset((type(None), bool, int, float, str, bytes))


def extract_all_refs(record):
    """Every property of the actor that holds actor refs (the shared
    :data:`EMPTY` when none does)."""
    refs = EMPTY
    instance_vars = getattr(record.instance, "__dict__", {})
    for pname, value in instance_vars.items():
        if pname.startswith("_") or pname == "ref":
            continue  # 'ref' is the actor's own injected handle
        if type(value) in _NEVER_REFS:
            continue
        held = record.instance.property_refs(pname)
        if held:
            if refs is EMPTY:
                refs = {}
            refs[pname] = tuple(held)
    return refs


class OracleProfiler(ProfilingRuntime):
    """A profiler whose snapshots carry every ref-holding property."""

    def _extract_refs(self, record):
        return extract_all_refs(record)
