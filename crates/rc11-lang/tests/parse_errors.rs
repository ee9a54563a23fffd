//! Parser error reporting: every rejection carries the 1-based line/column
//! of the offending token and a message naming the offence. These tests
//! pin both, so error spans cannot silently drift.

use rc11_lang::parse::{parse_litmus, ParseError};

fn err(src: &str) -> ParseError {
    parse_litmus(src).expect_err("source must be rejected")
}

#[test]
fn malformed_annotation_is_rejected_at_the_equals_sign() {
    let e = err("litmus \"e\"\n\
                 var x = 0\n\
                 thread T {\n\
                 \x20 x =rlx 1;\n\
                 }\n\
                 observe T.x\n\
                 expected { (0) }\n");
    assert_eq!((e.span.line, e.span.col), (4, 5));
    assert!(
        e.msg.contains("unknown access annotation `=rlx`"),
        "message must name the bad annotation: {}",
        e.msg
    );
    assert!(e.msg.contains("`=rel` or `=acq`"), "message must list the valid ones: {}", e.msg);
}

#[test]
fn undeclared_shared_variable_is_rejected_at_its_use() {
    let e = err("litmus \"e\"\n\
                 var x = 0\n\
                 thread T {\n\
                 \x20 r1 =acq zz;\n\
                 }\n\
                 observe T.r1\n\
                 expected { (0) }\n");
    assert_eq!((e.span.line, e.span.col), (4, 11));
    assert!(e.msg.contains("undeclared shared variable `zz`"), "{}", e.msg);
}

#[test]
fn undeclared_register_in_an_expression_is_rejected() {
    let e = err("litmus \"e\"\n\
                 var x = 0\n\
                 thread T {\n\
                 \x20 r1 = r9 + 1;\n\
                 }\n\
                 observe T.r1\n\
                 expected { (0) }\n");
    assert_eq!((e.span.line, e.span.col), (4, 8));
    assert!(e.msg.contains("undeclared variable or register `r9`"), "{}", e.msg);
    assert!(
        e.msg.contains("assigned before first use"),
        "message must explain the register rule: {}",
        e.msg
    );
}

#[test]
fn duplicate_thread_name_is_rejected_at_the_second_declaration() {
    let e = err("litmus \"e\"\n\
                 var x = 0\n\
                 thread T { r = x; }\n\
                 thread T { r = x; }\n\
                 observe T.r\n\
                 expected { (0) }\n");
    assert_eq!((e.span.line, e.span.col), (4, 8));
    assert!(e.msg.contains("duplicate thread name `T`"), "{}", e.msg);
}

#[test]
fn wrong_expected_tuple_arity_is_rejected_at_the_tuple() {
    let e = err("litmus \"e\"\n\
                 var x = 0\n\
                 thread T {\n\
                 \x20 r1 = x;\n\
                 \x20 r2 = x;\n\
                 }\n\
                 observe T.r1 T.r2\n\
                 expected {\n\
                 \x20 (0, 0, 0)\n\
                 }\n");
    assert_eq!((e.span.line, e.span.col), (9, 3));
    assert!(
        e.msg.contains("outcome tuple has 3 values but `observe` names 2 registers"),
        "{}",
        e.msg
    );
}

#[test]
fn unknown_method_is_rejected_at_the_method_name() {
    let e = err("litmus \"e\"\n\
                 stack s\n\
                 thread T {\n\
                 \x20 s.psuh(1);\n\
                 \x20 r = s.pop();\n\
                 }\n\
                 observe T.r\n\
                 expected { (empty) }\n");
    assert_eq!((e.span.line, e.span.col), (4, 5));
    assert!(e.msg.contains("no method `psuh`"), "{}", e.msg);
}

#[test]
fn observing_an_unknown_thread_or_register_is_rejected() {
    let base = "litmus \"e\"\n\
                var x = 0\n\
                thread T { r = x; }\n";
    let e = err(&format!("{base}observe Z.r\nexpected {{ (0) }}\n"));
    assert_eq!((e.span.line, e.span.col), (4, 9));
    assert!(e.msg.contains("unknown thread `Z`"), "{}", e.msg);

    let e = err(&format!("{base}observe T.r9\nexpected {{ (0) }}\n"));
    assert_eq!((e.span.line, e.span.col), (4, 11));
    assert!(e.msg.contains("thread `T` has no register `r9`"), "{}", e.msg);
}

#[test]
fn shared_variables_cannot_appear_inside_expressions() {
    let e = err("litmus \"e\"\n\
                 var x = 0\n\
                 thread T {\n\
                 \x20 r1 = x + 1;\n\
                 }\n\
                 observe T.r1\n\
                 expected { (1) }\n");
    assert_eq!((e.span.line, e.span.col), (4, 8));
    assert!(e.msg.contains("read it into a register first"), "{}", e.msg);
}

#[test]
fn binding_the_result_of_a_void_method_is_rejected() {
    let e = err("litmus \"e\"\n\
                 stack s\n\
                 thread T {\n\
                 \x20 r = s.push(1);\n\
                 }\n\
                 observe T.r\n\
                 expected { (bot) }\n");
    assert_eq!((e.span.line, e.span.col), (4, 9));
    assert!(e.msg.contains("method `push` returns no value"), "{}", e.msg);
}

#[test]
fn assignments_need_no_space_after_the_equals_sign() {
    // `r1=x` must lex as an assignment, not a malformed annotation; only
    // annotation-like names (`rlx`, `sc`, …) get the annotation error.
    let p = rc11_lang::parse::parse_litmus(
        "litmus \"e\"\n\
         var x = 0\n\
         thread T {\n\
         \x20 r1=x;\n\
         \x20 r2=r1;\n\
         \x20 r3=true;\n\
         }\n\
         observe T.r1 T.r2 T.r3\n\
         expected { (0, 0, true) }\n",
    )
    .expect("glued assignments parse");
    assert_eq!(p.prog.threads[0].n_regs, 3);

    let e = err("litmus \"e\"\nvar x = 0\nthread T { x =sc 1; }\nobserve T.x\nexpected {}\n");
    assert!(e.msg.contains("unknown access annotation `=sc`"), "{}", e.msg);
}

#[test]
fn lexer_errors_carry_spans_too() {
    let e = err("litmus \"e\"\nvar x = @\n");
    assert_eq!((e.span.line, e.span.col), (2, 9));
    assert!(e.msg.contains("unexpected character `@`"), "{}", e.msg);
}

#[test]
fn error_display_is_line_colon_column() {
    let e = err("litmus \"e\"\nvar x = @\n");
    assert_eq!(e.to_string(), "2:9: unexpected character `@`");
}

/// Nesting is capped: a source nested far past `MAX_DEPTH` (here 200k
/// `if` blocks, which once overflowed the parser's stack and aborted the
/// process) is refused at the first block past the cap, with its span.
#[test]
fn nesting_past_the_depth_cap_is_a_spanned_error() {
    use rc11_lang::parse::MAX_DEPTH;
    let n = 200_000;
    let src = format!(
        "litmus \"deep\"\nvar x = 0\nthread T {{\n{}{}}}\nobserve T.r\nexpected {{ (0) }}\n",
        "if (true) {\n".repeat(n),
        "}\n".repeat(n)
    );
    let e = err(&src);
    // `if` block k (on line 3 + k) is level k, so the condition of block
    // MAX_DEPTH + 1 is the first construct past the cap.
    assert_eq!((e.span.line as usize, e.span.col), (4 + MAX_DEPTH, 5));
    assert!(e.msg.contains(&format!("nesting deeper than {MAX_DEPTH} levels")), "{}", e.msg);
}

/// Expressions share the cap: parentheses and unary operators nest too.
#[test]
fn expression_nesting_past_the_depth_cap_is_a_spanned_error() {
    for (open, close) in [("(", ")"), ("!", ""), ("-", "")] {
        let src = format!(
            "litmus \"deep\"\nthread T {{\n  r = {}1{};\n}}\nobserve T.r\nexpected {{ (0) }}\n",
            open.repeat(100_000),
            close.repeat(100_000)
        );
        let e = err(&src);
        assert_eq!(e.span.line, 3, "{open}: {e}");
        assert!(e.msg.contains("nesting deeper than"), "{open}: {}", e.msg);
    }
}

/// Nesting at the cap still parses.
#[test]
fn nesting_at_the_depth_cap_parses() {
    use rc11_lang::parse::MAX_DEPTH;
    let n = MAX_DEPTH - 1;
    let src = format!(
        "litmus \"deep\"\nthread T {{\n  r = 0;\n{}  r = 1;\n{}}}\nobserve T.r\nexpected {{ (1) }}\n",
        "if (true) {\n".repeat(n),
        "}\n".repeat(n)
    );
    parse_litmus(&src).expect("nesting at the cap is accepted");
}
