"""Scilla language frontend: lexer, parser, typechecker, interpreter.

This subpackage implements the substrate language of the CoSplit paper
(Sergey et al., OOPSLA 2019): a minimalistic, memory- and type-safe
functional smart-contract language with message-passing semantics.
"""

from .ast import Contract, Component, Module
from .errors import (
    EvalError, ExecError, GasError, LexError, OutOfBoundsError,
    ParseError, ScillaError, TypeError_,
)
from .interpreter import Interpreter, OutMsg, TxContext
from .parser import parse_expression, parse_module, parse_type_str
from .state import MISSING, ContractState

__all__ = [
    "Contract", "Component", "Module",
    "EvalError", "ExecError", "GasError", "LexError", "OutOfBoundsError",
    "ParseError", "ScillaError", "TypeError_",
    "Interpreter", "OutMsg", "TxContext",
    "parse_expression", "parse_module", "parse_type_str",
    "MISSING", "ContractState",
]
