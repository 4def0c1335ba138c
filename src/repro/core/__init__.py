"""Core RSG machinery: cells, interfaces, connectivity graphs, operators."""

from .._lazy import lazy_exports

__all__ = [
    "CellDefinition",
    "CellTable",
    "Instance",
    "Label",
    "LayerBox",
    "Port",
    "Edge",
    "Node",
    "collect_graph",
    "expand_graph",
    "Interface",
    "derive_interface",
    "inherit_interface",
    "propagate_placement",
    "InterfaceTable",
    "Rsg",
    "RsgError",
    "CellError",
    "DuplicateCellError",
    "UnknownCellError",
    "InterfaceError",
    "UnknownInterfaceError",
    "DuplicateInterfaceError",
    "GraphError",
    "InconsistentGraphError",
    "DisconnectedGraphError",
    "LanguageError",
    "ParseError",
    "EvalError",
    "UnboundVariableError",
    "CompactionError",
    "InfeasibleConstraintsError",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cell": [
        "CellDefinition", "CellTable", "Instance", "Label", "LayerBox", "Port",
    ],
    ".errors": [
        "CellError", "CompactionError", "DisconnectedGraphError",
        "DuplicateCellError", "DuplicateInterfaceError", "EvalError",
        "GraphError", "InconsistentGraphError", "InfeasibleConstraintsError",
        "InterfaceError", "LanguageError", "ParseError", "RsgError",
        "UnboundVariableError", "UnknownCellError", "UnknownInterfaceError",
    ],
    ".graph": ["Edge", "Node", "collect_graph", "expand_graph"],
    ".interface": [
        "Interface", "derive_interface", "inherit_interface",
        "propagate_placement",
    ],
    ".interface_table": ["InterfaceTable"],
    ".operators": ["Rsg"],
})
