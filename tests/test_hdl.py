"""Tests for the SCALD HDL: expressions, parser, and macro expander."""

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl.expander import (
    ExpansionError,
    MacroExpander,
    expand_file,
    expand_source,
)
from repro.hdl.expr import ExpressionError, compile_expr, evaluate, evaluate_int
from repro.hdl.parser import ScaldSyntaxError, parse


class TestExpressions:
    def test_arithmetic(self):
        assert evaluate("2+3*4") == 14
        assert evaluate("(2+3)*4") == 20
        assert evaluate("10/4") == 2.5
        assert evaluate("-3+5") == 2

    def test_parameters(self):
        """The SIZE-1 of Figure 3-5's I<0:SIZE-1> parameter declaration."""
        assert evaluate("SIZE-1", {"SIZE": 32}) == 31

    def test_integer_required(self):
        assert evaluate_int("SIZE/2", {"SIZE": 8}) == 4
        with pytest.raises(ExpressionError):
            evaluate_int("SIZE/3", {"SIZE": 8})

    def test_unknown_parameter(self):
        with pytest.raises(ExpressionError, match="unknown parameter"):
            evaluate("WIDTH", {})

    def test_division_by_zero(self):
        with pytest.raises(ExpressionError):
            evaluate("1/0")

    def test_malformed(self):
        with pytest.raises(ExpressionError):
            evaluate("2+")
        with pytest.raises(ExpressionError):
            evaluate("(2")
        with pytest.raises(ExpressionError):
            evaluate("2 3")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "unexpected end of expression"),
            ("(1", "unexpected end of expression"),
            ("(1 2", "missing closing parenthesis"),
            ("1 2", "trailing input in expression '1 2'"),
            ("*2", "unexpected token '*'"),
            ("1 $", "bad character in expression '1 $' at 1"),
            ("4/0", "division by zero in expression"),
            ("1/(2-2)", "division by zero in expression"),
            ("W", "unknown parameter 'W'"),
            # Parsing precedes evaluation: a malformed text reports its
            # syntax error even when it also names an unknown parameter.
            ("W +", "unexpected end of expression"),
        ],
    )
    def test_rejected_inputs(self, text, message):
        with pytest.raises(ExpressionError) as info:
            evaluate(text, {})
        assert str(info.value) == message

    def test_compile_cache_is_bounded(self):
        maxsize = compile_expr.cache_info().maxsize
        assert maxsize is not None
        for i in range(maxsize + 10):
            compile_expr(f"{i} + N")
        assert compile_expr.cache_info().currsize == maxsize

    def test_one_tree_serves_every_binding(self):
        assert compile_expr("SIZE - 1") is compile_expr("SIZE - 1")
        assert [evaluate("SIZE - 1", {"SIZE": n}) for n in (1, 8, 32)] == [0, 7, 31]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_python_arithmetic(self, data):
        """Random well-formed texts evaluate as Python evaluates them.

        Divisors are single atoms, so magnitudes stay far inside the range
        where floats hold integers exactly and the evaluator's
        integral-quotient-to-int rule cannot change a later result.
        """
        env = data.draw(
            st.fixed_dictionaries(
                {
                    name: st.integers(0, 50) | st.sampled_from([0.5, 2.25, 7.0])
                    for name in ("A", "B", "SIZE")
                }
            )
        )
        text = data.draw(_EXPRESSIONS)
        try:
            want = eval(text, {"__builtins__": {}}, dict(env))  # noqa: S307
        except ZeroDivisionError:
            with pytest.raises(ExpressionError, match="division by zero"):
                evaluate(text, env)
            return
        assert evaluate(text, env) == want
        assert evaluate(text.replace(" ", ""), env) == want
        if float(want).is_integer():
            assert evaluate_int(text, env) == want
        else:
            with pytest.raises(ExpressionError, match="not an integer"):
                evaluate_int(text, env)


_ATOMS = (
    st.integers(0, 50).map(str)
    | st.builds("{}.{}".format, st.integers(0, 50), st.integers(0, 99))
    | st.sampled_from(["A", "B", "SIZE"])
)


def _extend(inner):
    binary = st.builds(
        "{} {} {}".format, inner, st.sampled_from("+-*"), inner
    )
    divide = st.builds("{} / {}".format, inner, _ATOMS)
    negate = st.builds("- {}".format, inner)
    node = binary | divide | negate
    return node | node.map("( {} )".format)


_EXPRESSIONS = st.recursive(_ATOMS, _extend, max_leaves=6)


HEADER = "design T; period 50 ns; clock_unit 6.25 ns;\n"


class TestParser:
    def test_header(self):
        d = parse(HEADER)
        assert d.name == "T"
        assert d.period_ns == 50.0
        assert d.clock_unit_ns == 6.25

    def test_comments_ignored(self):
        d = parse("-- a comment\n" + HEADER + "-- another\n")
        assert d.name == "T"

    def test_prim_statement(self):
        d = parse(HEADER + 'prim REG r (CLOCK="CK", DATA="D", OUT="Q") delay=1.5:4.5;')
        (stmt,) = d.top
        assert stmt.prim == "REG"
        assert dict(stmt.props)["delay"] == "1.5:4.5"
        assert [p for p, _ in stmt.pins] == ["CLOCK", "DATA", "OUT"]

    def test_quoted_primitive_name(self):
        d = parse(HEADER + 'prim "SETUP HOLD CHK" s (I="D", CK="CK") setup=2.5 hold=1.5;')
        assert d.top[0].prim == "SETUP HOLD CHK"

    def test_sigref_features(self):
        d = parse(HEADER + 'prim BUF b (I=-"WE .S0-6"<0:7>&HZ, OUT="X");')
        ref = dict(d.top[0].pins)["I"]
        assert ref.invert
        assert ref.name == "WE .S0-6"
        assert ref.subscript == ("0", "7")
        assert ref.directives == "HZ"

    def test_macro_definition(self):
        d = parse(
            HEADER
            + 'macro "M" (SIZE); param "A"<0:SIZE-1>; '
            + 'prim BUF b (I="A"/P, OUT="X"/M); endmacro;'
        )
        macro = d.macros["M"]
        assert macro.size_params == ("SIZE",)
        assert macro.pin_decls[0][0] == "A"
        assert len(macro.body) == 1

    def test_use_statement(self):
        d = parse(HEADER + 'use "M" u1 (A="SIG"<0:31>) SIZE=32;')
        (stmt,) = d.top
        assert stmt.macro == "M"
        assert dict(stmt.params)["SIZE"] == "32"

    def test_wire_statement(self):
        d = parse(HEADER + 'wire "ADR" 0.0:6.0;')
        assert d.wires == [("ADR", 0.0, 6.0)]

    def test_case_statement(self):
        d = parse(HEADER + 'case "A"=0, "B"=1;\ncase "A"=1, "B"=0;')
        assert d.cases == [{"A": 0, "B": 1}, {"A": 1, "B": 0}]

    def test_case_value_validated(self):
        with pytest.raises(ScaldSyntaxError, match="0 or 1"):
            parse(HEADER + 'case "A"=3;')

    def test_case_value_error_reports_the_value_line(self):
        src = 'design T;\ncase "A" = 1,\n "B" = 2;'
        with pytest.raises(
            ScaldSyntaxError, match=r"^x\.scald:3: case value must be 0 or 1, got 2$"
        ):
            parse(src, "x.scald")

    def test_duplicate_macro_rejected(self):
        src = HEADER + 'macro "M" (); endmacro;\nmacro "M" (); endmacro;'
        with pytest.raises(ScaldSyntaxError, match="duplicate"):
            parse(src)

    def test_syntax_error_carries_line(self):
        with pytest.raises(ScaldSyntaxError, match=":2"):
            parse("design T;\n???")

    def test_expression_cut_off_by_eof_reports_last_line(self):
        with pytest.raises(ScaldSyntaxError, match=r"^x\.scald:2: unterminated expression"):
            parse('design X;\nprim REG r (OUT="Q"<0:', "x.scald")
        with pytest.raises(ScaldSyntaxError, match=r"^x\.scald:3: unterminated property"):
            parse('design X;\nprim REG r (OUT="Q")\n  delay=', "x.scald")

    def test_unterminated_macro(self):
        with pytest.raises(ScaldSyntaxError):
            parse(HEADER + 'macro "M" (); prim BUF b (I="A", OUT="B");')

    def test_multiple_props_parse(self):
        d = parse(HEADER + 'prim REG r (CLOCK="C", DATA="D", OUT="Q") delay=1.5:4.5 width=SIZE-1;')
        props = dict(d.top[0].props)
        assert props == {"delay": "1.5:4.5", "width": "SIZE - 1"}


RAM_MACRO = """
macro "16W RAM 10145A" (SIZE);
  param "I"<0:SIZE-1>, "A"<0:3>, "CS", "WE", "O"<0:SIZE-1>;
  prim CHG dchg (I1="I"/P<0:SIZE-1>, OUT="DCHG"/M<0:SIZE-1>) delay=1.5:3.0 width=SIZE;
  prim CHG achg (I1="A"/P<0:3>, I2="CS"/P, I3="WE"/P, OUT="ACHG"/M<0:SIZE-1>)
       delay=3.0:6.0 width=SIZE;
  prim CHG outc (I1="DCHG"/M<0:SIZE-1>, I2="ACHG"/M<0:SIZE-1>, OUT="O"/P<0:SIZE-1>)
       width=SIZE;
  prim "SETUP HOLD CHK" dsu (I="I"/P, CK=-"WE"/P) setup=4.5 hold=-1.0 width=SIZE;
  prim "SETUP RISE HOLD FALL CHK" asu (I="A"/P, CK="WE"/P) setup=3.5 hold=1.0;
  prim "MIN PULSE WIDTH" mpw (I="WE"/P) min_high=4.0;
endmacro;
"""


class TestExpander:
    def test_figure_3_5_ram_macro_expands(self):
        src = (
            HEADER
            + RAM_MACRO
            + 'use "16W RAM 10145A" rf (I="W DATA .S0-6"<0:31>, A="ADR"<0:3>, '
            + 'CS="CS .S0-8", WE="RAM WE", O="RAM OUT"<0:31>) SIZE=32;'
        )
        circuit, stats = expand_source(src)
        assert len(circuit.components) == 6
        assert circuit.nets["W DATA .S0-6"].width == 32
        assert circuit.nets["rf/DCHG"].width == 32
        assert stats.macro_calls == 1
        assert stats.primitives == 6

    def test_size_parameter_arithmetic(self):
        src = (
            HEADER
            + 'macro "M" (SIZE); param "A"<0:SIZE-1>; '
            + 'prim BUF b (I="A"/P, OUT="X"/M<0:SIZE/2-1>) width=SIZE/2; endmacro;'
            + 'use "M" u (A="SIG"<0:15>) SIZE=16;'
        )
        circuit, _ = expand_source(src)
        assert circuit.nets["u/X"].width == 8

    def test_nested_macros_and_locals(self):
        src = (
            HEADER
            + 'macro "INNER" (); param "X"; prim BUF b (I="X"/P, OUT="Y"/M); endmacro;'
            + 'macro "OUTER" (); param "IN"; '
            + 'use "INNER" i1 (X="IN"/P); use "INNER" i2 (X="L"/M); endmacro;'
            + 'use "OUTER" o (IN="TOP");'
        )
        circuit, stats = expand_source(src)
        # Locals are mangled per instance path.
        assert "o/i1/Y" in circuit.nets
        assert "o/i2/Y" in circuit.nets
        assert "o/L" in circuit.nets
        assert stats.max_depth == 2

    def test_macro_locals_are_on_die(self):
        """/M signals live inside the chip the macro describes: they carry
        no default interconnection delay (the macro's pin signals do)."""
        src = (
            HEADER
            + 'macro "M" (); param "A"; '
            + 'prim BUF b1 (I="A"/P, OUT="MID"/M); '
            + 'prim BUF b2 (I="MID"/M, OUT="EXTERNAL"); endmacro;'
            + 'use "M" u (A="IN .S0-6");'
        )
        circuit, _ = expand_source(src)
        assert circuit.nets["u/MID"].wire_delay_ps == (0, 0)
        assert circuit.nets["EXTERNAL"].wire_delay_ps is None

    def test_wire_statement_overrides_internal_default(self):
        src = (
            HEADER
            + 'macro "M" (); param "A"; prim BUF b (I="A"/P, OUT="MID"/M); '
            + 'prim BUF b2 (I="MID"/M, OUT="Q"); endmacro;'
            + 'use "M" u (A="IN .S0-6");'
            + 'wire "u/MID" 0.0:3.0;'
        )
        circuit, _ = expand_source(src)
        assert circuit.nets["u/MID"].wire_delay_ps == (0, 3_000)

    def test_synonyms_recorded(self):
        src = (
            HEADER
            + 'macro "M" (); param "A"; prim BUF b (I="A"/P, OUT="Q"); endmacro;'
            + 'use "M" u (A="REAL SIGNAL");'
        )
        expander = MacroExpander.from_source(src)
        expander.expand()
        assert ("u/A", "REAL SIGNAL") in expander.synonyms

    def test_complement_composition(self):
        """A '-' on the actual and a '-' inside the macro cancel."""
        src = (
            HEADER
            + 'macro "M" (); param "A"; prim BUF b (I=-"A"/P, OUT="Q"); endmacro;'
            + 'use "M" u (A=-"SIG .S0-6");'
        )
        circuit, _ = expand_source(src)
        conn = circuit.components["u/b"].pins["I"]
        assert not conn.invert

    def test_directive_from_actual_flows_in(self):
        src = (
            HEADER
            + 'macro "M" (); param "CK"; '
            + 'prim AND g (I1="CK"/P, I2="EN", OUT="Q"); endmacro;'
            + 'use "M" u (CK="CLK .P2-3"&H);'
        )
        circuit, _ = expand_source(src)
        assert circuit.components["u/g"].pins["I1"].directives == "H"

    def test_width_mismatch_rejected(self):
        src = (
            HEADER
            + 'macro "M" (SIZE); param "A"<0:SIZE-1>; '
            + 'prim BUF b (I="A"/P, OUT="Q"/M); endmacro;'
            + 'use "M" u (A="SIG"<0:7>) SIZE=32;'
        )
        with pytest.raises(ExpansionError, match="bits"):
            expand_source(src)

    def test_unbound_parameter_rejected(self):
        src = (
            HEADER
            + 'macro "M" (); param "A", "B"; prim BUF b (I="A"/P, OUT="Q"); endmacro;'
            + 'use "M" u (A="SIG");'
        )
        with pytest.raises(ExpansionError, match="without binding"):
            expand_source(src)

    def test_unknown_formal_rejected(self):
        src = (
            HEADER
            + 'macro "M" (); param "A"; prim BUF b (I="A"/P, OUT="Q"); endmacro;'
            + 'use "M" u (A="SIG", ZZZ="OTHER");'
        )
        with pytest.raises(ExpansionError, match="no\\s+parameter"):
            expand_source(src)

    def test_missing_size_param_rejected(self):
        src = (
            HEADER
            + 'macro "M" (SIZE); param "A"; prim BUF b (I="A"/P, OUT="Q"); endmacro;'
            + 'use "M" u (A="SIG");'
        )
        with pytest.raises(ExpansionError, match="requires"):
            expand_source(src)

    def test_unknown_macro_rejected(self):
        with pytest.raises(ExpansionError, match="no macro"):
            expand_source(HEADER + 'use "NOPE" u (A="SIG");')

    def test_recursion_guard(self):
        src = (
            HEADER
            + 'macro "M" (); param "A"; use "M" again (A="A"/P); endmacro;'
            + 'use "M" u (A="SIG");'
        )
        with pytest.raises(ExpansionError, match="recursive"):
            expand_source(src)

    def test_p_outside_macro_rejected(self):
        with pytest.raises(ExpansionError, match="/P"):
            expand_source(HEADER + 'prim BUF b (I="A"/P, OUT="Q");')

    def test_missing_period_rejected(self):
        with pytest.raises(ExpansionError, match="period"):
            expand_source('design T; prim BUF b (I="A", OUT="Q");')

    def test_wires_and_cases_applied(self):
        src = (
            HEADER
            + 'prim BUF b (I="A .S0-6", OUT="Q");'
            + 'wire "A .S0-6" 0.0:6.0; case "A .S0-6"=1;'
        )
        circuit, _ = expand_source(src)
        assert circuit.nets["A .S0-6"].wire_delay_ps == (0, 6_000)
        assert circuit.cases == [{"A .S0-6": 1}]

    def test_expanded_circuit_verifies(self):
        """End to end: text in, violations out."""
        from repro import TimingVerifier

        src = (
            HEADER
            + 'prim REG r (CLOCK="CK .P2-3", DATA="D .S3-6", OUT="Q") delay=1.5:4.5;'
            + 'prim "SETUP HOLD CHK" s (I="D .S3-6", CK="CK .P2-3") setup=2.5 hold=1.5;'
        )
        circuit, _ = expand_source(src)
        result = TimingVerifier(circuit).verify()
        assert any(v.kind.value == "setup" for v in result.violations)

    def test_expression_counters(self):
        """Every expression use is counted; each distinct text compiles once."""
        shifter = Path(__file__).resolve().parent.parent / "examples/designs/shifter.scald"
        _, stats = expand_file(str(shifter))
        assert (stats.expressions, stats.expression_texts) == (118, 13)
        assert "expressions evaluated: 118, distinct expression texts: 13" in stats.table()

    def test_expand_twice_gives_the_same_circuit_and_stats(self):
        """Pass 2 emits from Pass 1's record; a second expand() rebuilds
        that record, so it must reproduce the first run exactly."""
        shifter = Path(__file__).resolve().parent.parent / "examples/designs/shifter.scald"
        expander = MacroExpander.from_file(str(shifter))

        def run():
            circuit = expander.expand()
            untimed = replace(
                expander.stats, read_seconds=0.0, pass1_seconds=0.0, pass2_seconds=0.0
            )
            return _netlist_dump(circuit), untimed, expander.synonyms

        first = run()
        assert first[0][0]  # components were emitted
        assert run() == first


def _netlist_dump(circuit):
    """Everything the expander decides about a circuit, as plain data."""
    components = [
        (
            comp.name,
            comp.prim.name,
            sorted(comp.params.items()),
            sorted(
                (pin, c.net.name, c.invert, c.directives)
                for pin, c in comp.pins.items()
            ),
            comp.origin,
        )
        for comp in circuit.components.values()
    ]
    nets = [
        (net.name, net.width, net.wire_delay_ps, net.origin, circuit.find(net).name)
        for net in circuit.nets.values()
    ]
    return components, nets, circuit.cases
