"""Exception types used across the package."""


class TccpError(Exception):
    pass


class TccpSyntaxError(TccpError):
    """Lexical or grammatical error in program text."""

    def __init__(self, line, col, expected, found=None):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        what = f"expected {expected}" if found is None else f"expected {expected}, found {found!r}"
        super().__init__(f"{line}:{col}: {what}")


class NestingTooDeepError(TccpError):
    """Program text nested deeper than the recursive-descent parser can follow."""

    def __init__(self, line, col):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: nesting too deep to parse")


class UnboundVariableError(TccpError):
    """A declaration body uses a variable that is neither a formal nor exists-bound."""

    def __init__(self, name, decl):
        self.name = name
        self.decl = decl
        super().__init__(f"unbound variable {name} in declaration {decl}")


class ArityError(TccpError):
    def __init__(self, name, expected, got):
        self.name = name
        self.expected = expected
        self.got = got
        super().__init__(f"procedure {name} expects {expected} argument(s), got {got}")


class UnknownProcedureError(TccpError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown procedure {name}")


class DuplicateDeclarationError(TccpError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"duplicate declaration {name}")


class UnknownSymbolError(TccpError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"symbol {name} not visible in scope")
