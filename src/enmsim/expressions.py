"""Tiny arithmetic expression grammar for rate functions on the CLI.

Supported: numbers, the variable t, + - * / ^, exp, tanh, sinh, cosh and
parentheses.  Expressions are parsed once and compiled, node by node
against a whitelist, into nested closures that are evaluated per time
point; nothing else from the host language is reachable.  A value that
overflows, divides by zero, turns complex or is not finite raises
:class:`ConfigError`.
"""

from __future__ import annotations

import ast
import math
from typing import Callable

from .errors import ConfigError

_FUNCTIONS = {
    "exp": math.exp,
    "tanh": math.tanh,
    "sinh": math.sinh,
    "cosh": math.cosh,
}

_BINARY = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a**b,
}

_UNARY = {
    ast.UAdd: lambda a: a,
    ast.USub: lambda a: -a,
}


def _compile(node: ast.AST) -> Callable[[float], float]:
    """Check one node against the whitelist and return its evaluator."""
    if isinstance(node, ast.Expression):
        return _compile(node.body)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)):
            value = float(node.value)
            return lambda t: value
        raise ConfigError(f"unsupported constant {node.value!r}")
    if isinstance(node, ast.Name):
        if node.id == "t":
            return lambda t: t
        raise ConfigError(f"unknown variable {node.id!r} (only t is allowed)")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op = _BINARY[type(node.op)]
        left, right = _compile(node.left), _compile(node.right)
        return lambda t: op(left(t), right(t))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        op, operand = _UNARY[type(node.op)], _compile(node.operand)
        return lambda t: op(operand(t))
    if isinstance(node, ast.Call):
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS
            and len(node.args) == 1
            and not node.keywords
        ):
            fn, arg = _FUNCTIONS[node.func.id], _compile(node.args[0])
            return lambda t: fn(arg(t))
        raise ConfigError("only exp, tanh, sinh, cosh with one argument are allowed")
    raise ConfigError(f"unsupported syntax element {type(node).__name__}")


def compile_rate_expression(text: str) -> Callable[[float], float]:
    """Compile an expression in t into a float-valued function of time."""
    try:
        evaluate = _compile(ast.parse(text.replace("^", "**"), mode="eval"))
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc.msg}") from exc
    except (OverflowError, ValueError, RecursionError, MemoryError) as exc:
        # a literal too large for a float, or nesting too deep for the parser
        raise ConfigError(f"cannot parse expression {text!r}: {exc!r}") from exc

    def rate(t: float) -> float:
        try:
            value = evaluate(float(t))
        except (ArithmeticError, TypeError, RecursionError) as exc:
            raise ConfigError(
                f"expression {text!r} fails at t={t:.12g}: {exc}"
            ) from exc
        if isinstance(value, complex) or not math.isfinite(value):
            raise ConfigError(
                f"expression {text!r} is not a finite real number at t={t:.12g}"
            )
        return value

    return rate
