"""The object-oriented data model substrate (paper §2).

This subpackage implements everything the paper's data-model review
describes: the acyclic IS-A class hierarchy, instance-of membership,
signatures with scalar/set-valued methods and structural inheritance,
tuple-objects with scalar and set-valued attribute cells, behavioral
inheritance of default values and method implementations (including
Meyer-style explicit resolution of multiple-inheritance conflicts), the
system catalogue realized as ordinary classes, and first-class relations.

The central facade is :class:`repro.datamodel.store.ObjectStore`.
"""

from repro.datamodel.hierarchy import ClassHierarchy
from repro.datamodel.signatures import Signature, TypeExpr
from repro.datamodel.store import ObjectStore
from repro.datamodel.methods import PythonMethod
from repro.datamodel.relations import StoredRelation

__all__ = [
    "ClassHierarchy",
    "Signature",
    "TypeExpr",
    "ObjectStore",
    "PythonMethod",
    "StoredRelation",
]
