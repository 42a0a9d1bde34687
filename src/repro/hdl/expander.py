"""The SCALD Macro Expander (sections 3.1 and 3.3.2).

The expander turns a macro-based design description into the flat primitive
netlist the Timing Verifier consumes, in the thesis's three phases, each
individually timed for the Table 3-1 execution statistics:

* **Reading input files and building data structures** — parsing;
* **Pass 1** — walk the macro call tree resolving parameter bindings,
  checking declarations, and building the structure that resolves all
  *synonyms* between signals (a formal macro parameter and the actual
  signal bound to it are the same signal);
* **Pass 2** — emit the fully elaborated design (a
  :class:`~repro.netlist.Circuit`) for the Timing Verifier.  Pass 1
  records each primitive it resolved, in walk order; Pass 2 emits from
  that record without walking the call tree or evaluating an expression
  again.

Signal scoping follows section 3.1: ``/P`` marks a macro parameter (and is
checked against the ``param`` declaration), ``/M`` marks a signal local to
the macro instance, and unmarked signals are global.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..netlist.circuit import Circuit, Connection
from ..netlist.primitives import lookup
from .expr import ExpressionError, evaluate, evaluate_int
from .parser import Design, MacroDef, PrimStmt, ScaldSyntaxError, SigRef, UseStmt


class ExpansionError(ValueError):
    """Raised for semantic errors during macro expansion."""


@dataclass
class ExpanderStats:
    """Execution statistics in the shape of Table 3-1's Expander half."""

    read_seconds: float = 0.0
    pass1_seconds: float = 0.0
    pass2_seconds: float = 0.0
    macro_calls: int = 0
    primitives: int = 0
    synonyms: int = 0
    max_depth: int = 0
    #: Expression evaluations (subscripts, size parameters and property
    #: values, all in Pass 1), and the distinct expression texts among
    #: them; each distinct text is parsed once, each evaluation walks its
    #: tree.
    expressions: int = 0
    expression_texts: int = 0

    @property
    def total_seconds(self) -> float:
        return self.read_seconds + self.pass1_seconds + self.pass2_seconds

    def table(self) -> str:
        rows = [
            ("Reading input files and building data structures", self.read_seconds),
            ("Pass 1 of Macro Expansion", self.pass1_seconds),
            ("Pass 2 of Macro Expansion", self.pass2_seconds),
        ]
        lines = ["MACRO EXPANSION EXECUTION STATISTICS", ""]
        for label, seconds in rows:
            lines.append(f"  {label:<52} {seconds * 1000:10.2f} ms")
        lines.append(f"  {'Total':<52} {self.total_seconds * 1000:10.2f} ms")
        lines.append("")
        lines.append(
            f"  macro calls: {self.macro_calls}, primitives: {self.primitives}, "
            f"synonyms resolved: {self.synonyms}, max depth: {self.max_depth}"
        )
        lines.append(
            f"  expressions evaluated: {self.expressions}, "
            f"distinct expression texts: {self.expression_texts}"
        )
        return "\n".join(lines)


@dataclass
class _Scope:
    """One level of macro instantiation."""

    path: str  # hierarchical instance prefix, e.g. "cpu/alu0/"
    params: dict[str, float | int] = field(default_factory=dict)
    formals: dict[str, "ResolvedSig"] = field(default_factory=dict)
    declared: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class ResolvedSig:
    """A fully resolved signal reference.

    ``internal`` marks an ``/M`` macro-local signal: it lives on the chip
    the macro describes, so it carries no default interconnection delay
    (inter-chip wire delay applies to the macro's pin signals only).
    """

    name: str
    invert: bool = False
    width: int = 1
    directives: str = ""
    internal: bool = False


class MacroExpander:
    """Expands a parsed :class:`Design` into a flat :class:`Circuit`."""

    def __init__(self, design: Design) -> None:
        self.design = design
        self.stats = ExpanderStats()
        self._synonym_pairs: list[tuple[str, str]] = []
        self._expression_texts: set[str] = set()
        #: Pass 1's record for Pass 2: (statement, instance path, primitive
        #: type, resolved pins, params) per primitive, in walk order.
        self._resolved: list[
            tuple[PrimStmt, str, str, list[tuple[str, ResolvedSig]], dict[str, object]]
        ] = []

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @classmethod
    def from_source(cls, source: str, filename: str = "") -> "MacroExpander":
        """Parse and wrap; the parse time is recorded as the read phase."""
        from .parser import parse

        t0 = time.perf_counter()
        design = parse(source, filename)
        expander = cls(design)
        expander.stats.read_seconds = time.perf_counter() - t0
        return expander

    @classmethod
    def from_file(cls, path: str) -> "MacroExpander":
        with open(path, encoding="utf-8") as f:
            source = f.read()
        return cls.from_source(source, filename=path)

    def expand(self) -> Circuit:
        """Run Pass 1 and Pass 2, returning the flat circuit."""
        t0 = time.perf_counter()
        self._pass1()
        self.stats.pass1_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        try:
            circuit = self._pass2()
        finally:
            self._resolved = []
        self.stats.pass2_seconds = time.perf_counter() - t0
        self.stats.expression_texts = len(self._expression_texts)
        return circuit

    @property
    def synonyms(self) -> list[tuple[str, str]]:
        """The formal-to-actual signal pairs resolved in Pass 1."""
        return list(self._synonym_pairs)

    # ------------------------------------------------------------------
    # Pass 1: validate the call tree, resolve synonyms, record primitives
    # ------------------------------------------------------------------

    def _pass1(self) -> None:
        self._synonym_pairs.clear()
        self._resolved = []
        self.stats.macro_calls = 0
        self.stats.primitives = 0
        self.stats.max_depth = 0
        self.stats.expressions = 0
        self._expression_texts.clear()
        for stmt in self.design.top:
            self._walk(stmt, _Scope(path=""), depth=0)
        self.stats.synonyms = len(self._synonym_pairs)

    # ------------------------------------------------------------------
    # Pass 2: emit the flat circuit from Pass 1's record
    # ------------------------------------------------------------------

    def _pass2(self) -> Circuit:
        if self.design.period_ns is None:
            raise ExpansionError("design does not specify a period")
        circuit = Circuit(
            self.design.name,
            period_ns=self.design.period_ns,
            clock_unit_ns=self.design.clock_unit_ns,
        )
        for stmt, path, prim_name, resolved, params in self._resolved:
            width = int(params.get("width", 0)) or max(
                (sig.width for _pin, sig in resolved), default=1
            )
            params.setdefault("width", width)
            origin = (stmt.source_file, stmt.line)
            pins: dict[str, object] = {}
            for pin, sig in resolved:
                net = circuit.net(sig.name, width=sig.width)
                if net.origin is None:
                    net.origin = origin
                if sig.internal and net.wire_delay_ps is None:
                    net.wire_delay_ps = (0, 0)  # on-die: no interconnection run
                pins[pin] = Connection(
                    net=net,
                    invert=sig.invert,
                    directives=sig.directives,
                )
            circuit.add(
                f"{path}{stmt.inst}", prim_name, pins, origin=origin, **params
            )
        for name, lo, hi in self.design.wires:
            net = circuit.net(name)
            net.wire_delay_ps = (round(lo * 1000), round(hi * 1000))
        for case in self.design.cases:
            circuit.add_case_by_name(dict(case))
        return circuit

    # ------------------------------------------------------------------
    # the call-tree walk (Pass 1)
    # ------------------------------------------------------------------

    def _walk(self, stmt: PrimStmt | UseStmt, scope: _Scope, depth: int) -> None:
        self.stats.max_depth = max(self.stats.max_depth, depth)
        if isinstance(stmt, PrimStmt):
            self._walk_prim(stmt, scope)
        else:
            self._walk_use(stmt, scope, depth)

    def _walk_prim(self, stmt: PrimStmt, scope: _Scope) -> None:
        self.stats.primitives += 1
        try:
            prim = lookup(stmt.prim)
        except KeyError as exc:
            raise ExpansionError(f"line {stmt.line}: {exc.args[0]}") from exc
        resolved = [(pin, self._resolve(ref, scope, stmt.line)) for pin, ref in stmt.pins]
        params = self._eval_props(stmt.props, scope, stmt.line)
        self._resolved.append((stmt, scope.path, prim.name, resolved, params))

    def _walk_use(self, stmt: UseStmt, scope: _Scope, depth: int) -> None:
        self.stats.macro_calls += 1
        macro = self.design.macros.get(stmt.macro)
        if macro is None:
            raise ExpansionError(
                f"line {stmt.line}: no macro named {stmt.macro!r}"
            )
        if depth > 64:
            raise ExpansionError(
                f"line {stmt.line}: macro nesting exceeds 64 levels — "
                f"is {stmt.macro!r} recursive?"
            )
        child = _Scope(path=f"{scope.path}{stmt.inst}/")
        # Size parameters.
        given = dict(stmt.params)
        for pname in macro.size_params:
            if pname in given:
                child.params[pname] = self._eval_number(
                    given.pop(pname), scope, stmt.line
                )
            else:
                raise ExpansionError(
                    f"line {stmt.line}: macro {stmt.macro!r} requires "
                    f"parameter {pname}"
                )
        if given:
            raise ExpansionError(
                f"line {stmt.line}: macro {stmt.macro!r} does not take "
                f"parameter(s) {sorted(given)}"
            )
        # Declared pins and their widths (evaluated with the child params).
        declared_width: dict[str, int] = {}
        for pname, sub in macro.pin_decls:
            child.declared.add(pname)
            declared_width[pname] = self._subscript_width(sub, child, macro.line)
        # Formal-to-actual bindings.
        for formal, actual_ref in stmt.bindings:
            if formal not in child.declared:
                raise ExpansionError(
                    f"line {stmt.line}: macro {stmt.macro!r} has no "
                    f"parameter {formal!r}"
                )
            actual = self._resolve(actual_ref, scope, stmt.line)
            want = declared_width.get(formal, 1)
            if actual_ref.subscript is not None and actual.width != want:
                raise ExpansionError(
                    f"line {stmt.line}: {formal!r} of {stmt.macro!r} is "
                    f"{want} bits wide but is bound to {actual.width} bits"
                )
            child.formals[formal] = ResolvedSig(
                name=actual.name,
                invert=actual.invert,
                width=max(actual.width, want),
                directives=actual.directives,
            )
            self._synonym_pairs.append((f"{child.path}{formal}", actual.name))
        missing = child.declared - set(child.formals)
        if missing:
            raise ExpansionError(
                f"line {stmt.line}: macro {stmt.macro!r} called without "
                f"binding parameter(s) {sorted(missing)}"
            )
        for inner in macro.body:
            self._walk(inner, child, depth + 1)

    # ------------------------------------------------------------------
    # resolution helpers
    # ------------------------------------------------------------------

    def _resolve(self, ref: SigRef, scope: _Scope, line: int) -> ResolvedSig:
        width = self._subscript_width(ref.subscript, scope, line)
        if ref.scope == "P":
            bound = scope.formals.get(ref.name)
            if bound is None:
                raise ExpansionError(
                    f"line {line}: {ref.name!r}/P is not a declared parameter "
                    "of the enclosing macro"
                )
            return ResolvedSig(
                name=bound.name,
                invert=bound.invert ^ ref.invert,
                width=max(width, bound.width),
                directives=ref.directives or bound.directives,
            )
        if ref.scope == "M":
            if not scope.path:
                raise ExpansionError(
                    f"line {line}: {ref.name!r}/M used outside a macro"
                )
            return ResolvedSig(
                name=f"{scope.path}{ref.name}",
                invert=ref.invert,
                width=width,
                directives=ref.directives,
                internal=True,
            )
        return ResolvedSig(
            name=ref.name, invert=ref.invert, width=width, directives=ref.directives
        )

    def _subscript_width(
        self, sub: tuple[str, str] | None, scope: _Scope, line: int
    ) -> int:
        if sub is None:
            return 1
        self.stats.expressions += 2
        self._expression_texts.update(sub)
        try:
            lo = evaluate_int(sub[0], scope.params)
            hi = evaluate_int(sub[1], scope.params)
        except ExpressionError as exc:
            raise ExpansionError(f"line {line}: {exc}") from exc
        return abs(hi - lo) + 1

    def _eval_number(self, text: str, scope: _Scope, line: int) -> float | int:
        self.stats.expressions += 1
        self._expression_texts.add(text)
        try:
            return evaluate(text, scope.params)
        except ExpressionError as exc:
            raise ExpansionError(f"line {line}: {exc}") from exc

    def _eval_props(
        self, props: tuple[tuple[str, str], ...], scope: _Scope, line: int
    ) -> dict[str, object]:
        out: dict[str, object] = {}
        for name, text in props:
            if ":" in text:
                lo_text, hi_text = text.split(":", 1)
                out[name] = (
                    self._eval_number(lo_text, scope, line),
                    self._eval_number(hi_text, scope, line),
                )
            else:
                out[name] = self._eval_number(text, scope, line)
        return out


def expand_source(source: str, filename: str = "") -> tuple[Circuit, ExpanderStats]:
    """One-shot: parse, expand, and return the circuit with its statistics."""
    expander = MacroExpander.from_source(source, filename)
    circuit = expander.expand()
    return circuit, expander.stats


def expand_file(path: str) -> tuple[Circuit, ExpanderStats]:
    """Parse and expand a ``.scald`` file."""
    expander = MacroExpander.from_file(path)
    circuit = expander.expand()
    return circuit, expander.stats
