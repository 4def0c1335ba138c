"""The design-file language: tokenizer, parser, environments, interpreter."""

from .._lazy import lazy_exports

__all__ = [
    "tokenize",
    "Token",
    "parse_program",
    "parse_statement",
    "Form",
    "IndexedVar",
    "Symbol",
    "Statement",
    "Alias",
    "Environment",
    "GlobalEnvironment",
    "Interpreter",
    "Procedure",
    "ParameterSet",
    "parse_parameters",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".ast_nodes": ["Form", "IndexedVar", "Statement", "Symbol"],
    ".environment": ["Alias", "Environment", "GlobalEnvironment"],
    ".interpreter": ["Interpreter", "Procedure"],
    ".param_file": ["ParameterSet", "parse_parameters"],
    ".parser": ["parse_program", "parse_statement"],
    ".tokens": ["Token", "tokenize"],
})
