"""Schema extension for the §6.2 typing fragments (17)–(20).

Fragment (19) needs, beyond Figure 1:

* a class ``Organization`` with ``Company`` as a subclass (so the range
  ``{Object, Organization, Company}`` of ``M`` is non-empty);
* a class ``Association`` (a kind of organization) with the method
  signature ``Member : Association, Numeral => Organization``;
* a second signature ``President : Organization => Person`` (the paper:
  "let President have one more type expression: Organization => Person");
* the individual ``OO_Forum`` whose ``Member`` method maps a year to a
  member organization.
"""

from __future__ import annotations

from repro.datamodel.store import ObjectStore
from repro.oid import Atom, Value

__all__ = ["extend_with_typing_classes"]


def extend_with_typing_classes(store: ObjectStore) -> ObjectStore:
    """Add Organization/Association on top of the Figure 1 schema."""
    store.declare_class("Organization")
    store.declare_class("Company", ["Organization"])
    store.declare_class("Association", ["Organization"])
    store.declare_signature(
        "Association", "Member", "Organization", args=["Numeral"]
    )
    store.declare_signature("Organization", "President", "Person")
    store.declare_signature("Organization", "Name", "String")
    return store


def populate_oo_forum(store: ObjectStore) -> ObjectStore:
    """OO_Forum with per-year members (used by fragment (19) end-to-end)."""
    forum = store.create_object(Atom("OO_Forum"), ["Association"])
    store.set_attr(forum, "Name", "OO Forum")
    for year, member in ((1990, "uniSQL"), (1991, "acme")):
        if Atom(member) in store.known_objects():
            store.set_attr(forum, "Member", Atom(member), args=[Value(year)])
    return store
