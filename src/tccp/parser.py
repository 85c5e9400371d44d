"""Lexer and recursive-descent parser for the concrete tccp syntax.

See docs/grammar.md for the grammar. Parsing is two-phase: build the AST,
then check scope (declaration bodies may only use formals and exists-bound
variables) and call sites (known procedure, matching arity).
"""

import re
import sys
from collections import namedtuple
from fractions import Fraction

from .ast import (
    Anon, Atom, Call, Choice, Cons, CTrue, Decl, Exists, LinExpr, Linear,
    Now, Num, Parallel, Program, Skip, StreamEq, Tell, Var, free_vars, walk,
)
from .errors import (
    ArityError, DuplicateDeclarationError, NestingTooDeepError,
    TccpSyntaxError, UnboundVariableError, UnknownProcedureError,
)

KEYWORDS = {"skip", "tell", "ask", "now", "then", "else", "exists", "true"}

# one match per token, or per run of blanks, a comment or a newline
_TOKEN = re.compile(r"(?P<nl>\n)|(?P<blank>[ \t\r]+)|(?P<comment>%[^\n]*)|"
                    r"(?P<bad>_\w)|(?P<punct>\|\||:-|->|<=|>=|[-()\[\]|,.+*=<>_])|"
                    r"(?P<num>\d+)|(?P<word>[^\W\d_]\w*'*)")

Token = namedtuple("Token", "kind value line col")


def tokenize(text):
    toks, i, line, col = [], 0, 1, 1
    while i < len(text):
        m = _TOKEN.match(text, i)
        kind = m.lastgroup if m else None
        if kind is None or kind == "word" and not text[i].isalpha():
            raise TccpSyntaxError(line, col, "a token", text[i])
        word, i = m.group(), m.end()
        if kind == "nl":
            line, col = line + 1, 1
            continue
        if kind == "bad":  # `_x` is not an identifier form we accept
            raise TccpSyntaxError(line, col, "a bare `_`", word)
        if kind == "num":
            try:
                value = int(word)
            except ValueError:  # longer than sys.get_int_max_str_digits()
                raise TccpSyntaxError(line, col, "a number of at most "
                                      f"{sys.get_int_max_str_digits()} digits"
                                      ) from None
            toks.append(Token("NUM", Fraction(value), line, col))
        elif kind == "word":
            if word[0].isupper():
                kind = "VAR"
            elif "'" in word:
                raise TccpSyntaxError(line, col, "primes only on variables",
                                      word)
            else:
                kind = word if word in KEYWORDS else "ATOM"
            toks.append(Token(kind, word, line, col))
        elif kind == "punct":
            toks.append(Token(word, word, line, col))
        if kind != "comment":  # a comment runs to the newline
            col += len(word)
    toks.append(Token("EOF", None, line, col))
    return toks


class _Parser:
    def __init__(self, text):
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self, ahead=0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def expect(self, kind):
        if self.peek().kind != kind:
            self.error(kind)
        return self.next()

    def error(self, expected):
        t = self.peek()
        raise TccpSyntaxError(t.line, t.col, expected, t.value)

    def enclosed(self, rule):
        """`( rule )`, where rule() parses what the parentheses hold."""
        self.expect("(")
        out = rule()
        self.expect(")")
        return out

    def names(self):
        return self.comma_list(lambda: self.expect("VAR").value)

    def comma_list(self, item):
        """`item { "," item }`, where item() parses one element."""
        items = [item()]
        while self.peek().kind == ",":
            self.next()
            items.append(item())
        return items

    # -------------------------------------------------------- programs

    def program(self):
        decls = []
        while self.peek().kind != "EOF":
            decls.append(self.declaration())
        return tuple(decls)

    def declaration(self):
        name = self.expect("ATOM").value
        formals = self.enclosed(self.names) if self.peek().kind == "(" else []
        if len(set(formals)) != len(formals):
            raise TccpSyntaxError(self.peek().line, self.peek().col,
                                  "distinct formal parameters", name)
        self.expect(":-")
        body = self.agent()
        self.expect(".")
        return Decl(name, tuple(formals), body)

    # ---------------------------------------------------------- agents

    def agent(self):
        first = self.choice_level()
        if self.peek().kind != "||":
            return first
        agents = [first]
        while self.peek().kind == "||":
            self.next()
            agents.append(self.choice_level())
        return Parallel(tuple(agents))

    def choice_level(self):
        if self.peek().kind == "ask":
            branches = [self.branch()]
            while self.peek().kind == "+":
                self.next()
                branches.append(self.branch())
            return Choice(tuple(branches))
        a = self.prefix()
        if self.peek().kind == "+":
            self.error("every choice branch to be ask-guarded")
        return a

    def branch(self):
        self.expect("ask")
        guard = self.enclosed(self.constraint)
        self.expect("->")
        return (guard, self.prefix())

    def prefix(self):
        t = self.peek()
        if t.kind == "skip":
            self.next()
            return Skip()
        if t.kind == "tell":
            self.next()
            return Tell(self.enclosed(self.constraint))
        if t.kind == "now":
            return self.now_agent()
        if t.kind == "exists":
            return self.exists_agent()
        if t.kind == "ATOM":
            return self.call_agent()
        if t.kind == "(":
            self.next()
            a = self.agent()
            self.expect(")")
            return a
        self.error("an agent")

    def now_agent(self):
        self.expect("now")
        cond = (self.enclosed(self.constraint) if self.peek().kind == "("
                else self.constraint())
        self.expect("then")
        then_agent = self.prefix()
        else_agent = Skip()
        if self.peek().kind == "else":
            self.next()
            else_agent = self.prefix()
        return Now(cond, then_agent, else_agent)

    def exists_agent(self):
        self.expect("exists")
        names = self.names()
        if len(set(names)) != len(names):
            t = self.peek()
            raise TccpSyntaxError(t.line, t.col, "distinct local variables", names)
        self.expect("(")
        body = self.agent()
        self.expect(")")
        return Exists(tuple(names), body)

    def call_agent(self):
        name = self.expect("ATOM").value
        actuals = (self.enclosed(lambda: self.comma_list(self.actual))
                   if self.peek().kind == "(" else [])
        return Call(name, tuple(actuals))

    def actual(self):
        t = self.peek()
        if t.kind == "ATOM":
            self.next()
            return Atom(t.value)
        if t.kind == "VAR" and self.peek(1).kind in (",", ")"):
            self.next()
            return Var(t.value)
        e = self.linexpr()
        if not e.coeffs:
            return Num(e.const)
        return e

    # ------------------------------------------------------ constraints

    def constraint(self):
        t = self.peek()
        if t.kind == "true":
            self.next()
            return CTrue()
        if t.kind == "VAR" and self.peek(1).kind == "=":
            rhs_start = self.peek(2)
            if rhs_start.kind in ("[", "ATOM", "_"):
                name = self.next().value
                self.next()
                return StreamEq(name, self.term())
            if rhs_start.kind == "VAR" and self.peek(3).kind not in ("+", "-", "*"):
                name = self.next().value
                self.next()
                return StreamEq(name, Var(self.next().value))
        lhs = self.linexpr()
        t = self.peek()
        if t.kind not in ("=", "<", ">", "<=", ">="):
            self.error("a comparison operator")
        self.next()
        rhs = self.linexpr()
        return Linear(lhs, t.kind, rhs)

    def term(self):
        t = self.peek()
        if t.kind == "ATOM":
            self.next()
            return Atom(t.value)
        if t.kind == "VAR":
            self.next()
            return Var(t.value)
        if t.kind == "NUM":
            self.next()
            return Num(t.value)
        if t.kind == "-":
            self.next()
            return Num(-self.expect("NUM").value)
        if t.kind == "_":
            self.next()
            return Anon()
        if t.kind == "[":
            self.next()
            head = self.term()
            self.expect("|")
            tail = self.term()
            self.expect("]")
            return Cons(head, tail)
        self.error("a term")

    # ------------------------------------------------ linear expressions

    def linexpr(self):
        e = self.lin_term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.lin_term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def lin_term(self):
        e = self.lin_factor()
        while self.peek().kind == "*":
            t = self.next()
            rhs = self.lin_factor()
            if e.coeffs and rhs.coeffs:
                raise TccpSyntaxError(t.line, t.col, "a linear product", "*")
            if rhs.coeffs:
                e, rhs = rhs, e
            e = e.scaled(rhs.const)
        return e

    def lin_factor(self):
        t = self.peek()
        if t.kind == "-":
            self.next()
            return self.lin_factor().scaled(-1)
        if t.kind == "NUM":
            self.next()
            return LinExpr.of_num(t.value)
        if t.kind == "VAR":
            self.next()
            return LinExpr.of_var(t.value)
        self.error("a number or variable")


# ------------------------------------------------------------- validation

def validate(program):
    seen = set()
    for d in program.decls:
        if d.name in seen:
            raise DuplicateDeclarationError(d.name)
        seen.add(d.name)

    arity = {d.name: len(d.formals) for d in program.decls}

    def check_calls(agent):
        for call, _ in walk(agent):
            if not isinstance(call, Call):
                continue
            if call.name not in arity:
                raise UnknownProcedureError(call.name)
            if arity[call.name] != len(call.actuals):
                raise ArityError(call.name, arity[call.name], len(call.actuals))

    for d in program.decls:
        free = set(free_vars(d.body)) - set(d.formals)
        if free:
            raise UnboundVariableError(sorted(free)[0], d.name)
        check_calls(d.body)
    if program.entry is not None:
        check_calls(program.entry)
    return program


# ------------------------------------------------------------- public API

def _parse(text, rule):
    """Apply one rule of `_Parser` to the whole of `text`."""
    p = _Parser(text)
    try:
        out = rule(p)
    except RecursionError:
        # the descent takes one or more Python frames per nesting level
        t = p.peek()
        raise NestingTooDeepError(t.line, t.col) from None
    p.expect("EOF")
    return out


def parse_agent(text):
    return _parse(text, _Parser.agent)


def parse_constraint(text):
    return _parse(text, _Parser.constraint)


def parse_program(text, entry=None):
    """Parse declarations (and an optional entry agent) into a validated Program.

    Free variables of the entry agent are recorded in first-occurrence order;
    the interpreter gives them cells in an implicit root scope.
    """
    decls = _parse(text, _Parser.program)
    entry_agent = None
    entry_vars = ()
    if entry is not None:
        entry_agent = parse_agent(entry)
        entry_vars = free_vars(entry_agent)
    return validate(Program(decls, entry_agent, entry_vars))
