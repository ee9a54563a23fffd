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

/// Run `f` on a thread with a 2 MiB stack, the size of an `rc11d`
/// worker's: an input that overflows it aborts the whole test binary.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic")
}

/// One thread whose body is `body`, observing its register `r`.
fn one_thread(body: &str) -> String {
    format!("litmus \"long\"\nvar x = 0\nthread T {{\n{body}}}\nobserve T.r\nexpected {{ (1) }}\n")
}

/// Statement sequences are bounded with the nesting: 15,000 statements,
/// whose left-nested `Seq` tree once overflowed a 2 MiB stack and aborted
/// the process, are refused at the first statement past the bound.
#[test]
fn a_statement_sequence_past_the_height_bound_is_a_spanned_error() {
    use rc11_lang::parse::MAX_HEIGHT;
    let e = on_small_stack(|| err(&one_thread(&"r = 1;\n".repeat(15_000))));
    // Statement k is on line 3 + k; each is 2 levels tall (assignment and
    // literal), and a sequence of k of them k + 1.
    assert_eq!((e.span.line as usize, e.span.col), (3 + MAX_HEIGHT, 1));
    assert!(e.msg.contains(&format!("nest deeper than {MAX_HEIGHT} levels")), "{}", e.msg);
}

/// Operator chains share the bound: a 15,000-term sum is refused at the
/// first operator past it, and so are chains of every other operator.
#[test]
fn an_operator_chain_past_the_height_bound_is_a_spanned_error() {
    use rc11_lang::parse::MAX_HEIGHT;
    for op in ["+", "-", "*", "%", "&&", "||"] {
        let sum = vec!["1"; 15_000].join(&format!(" {op} "));
        let src = one_thread(&format!("r = {sum};\n"));
        let e = on_small_stack(move || err(&src));
        assert_eq!(e.span.line, 4, "{op}: {e}");
        assert!(e.msg.contains(&format!("nest deeper than {MAX_HEIGHT} levels")), "{op}: {e}");
        if op == "+" {
            // `r = 1 + 1 …`: term k starts at column 5 + (k - 1) * 4, and
            // the operator after term MAX_HEIGHT makes the chain one too
            // tall.
            assert_eq!(e.span.col as usize, 5 + MAX_HEIGHT * 4 - 2, "{e}");
        }
    }
}

/// Trees at the bound still parse, sequences and chains alike, and so do
/// shorter sequences of taller statements.
#[test]
fn trees_at_the_height_bound_parse() {
    use rc11_lang::parse::MAX_HEIGHT;
    let statements = one_thread(&"r = 1;\n".repeat(MAX_HEIGHT - 1));
    let sum = one_thread(&format!("r = {};\n", vec!["1"; MAX_HEIGHT - 1].join(" + ")));
    let mixed = one_thread(&format!("r = 1 + 1 + 1;\n{}", "r = 1;\n".repeat(MAX_HEIGHT - 4)));
    for src in [statements, sum, mixed] {
        on_small_stack(move || parse_litmus(&src).map(drop)).expect("a tree at the bound parses");
    }
    let e = err(&one_thread(&"r = 1;\n".repeat(MAX_HEIGHT)));
    assert!(e.msg.contains("nest deeper than"), "{e}");
}

/// A relaxed message-passing test with `n` threads: a writer, a reader,
/// and `n - 2` idle threads between them, one thread per line from line 4.
fn wide_mp(n: usize) -> String {
    let mut src = String::from("litmus \"wide\"\nvar d = 0\nvar f = 0\n");
    src.push_str("thread W { d = 1; f = 1; }\n");
    for i in 0..n - 2 {
        src.push_str(&format!("thread I{i} {{ skip; }}\n"));
    }
    src.push_str("thread R { a = f; b = d; }\n");
    src.push_str("observe R.a R.b\nexpected { (0,0) (0,1) (1,0) (1,1) }\n");
    src
}

/// Thread ids are 8-bit: a 257th thread would alias thread 0's views and
/// lose outcomes, so it is rejected where it is declared.
#[test]
fn thread_past_the_id_range_is_rejected_at_its_name() {
    assert!(parse_litmus(&wide_mp(256)).is_ok(), "256 threads fit the id range");
    let e = err(&wide_mp(257));
    assert_eq!((e.span.line, e.span.col), (4 + 256, 8), "{e}");
    assert!(e.msg.contains("too many threads: at most 256"), "{}", e.msg);
}

/// The builder reports the same limits as errors: more than 256 threads,
/// or more locations in a component than `Loc` can name.
#[test]
fn builder_rejects_thread_and_location_counts_past_their_id_range() {
    use rc11_lang::builder::{ProgramBuilder, ThreadBuilder};
    use rc11_lang::Com;
    let threads = |n: usize| {
        let mut p = ProgramBuilder::new("threads");
        for _ in 0..n {
            p.add_thread(ThreadBuilder::new(), Com::Skip);
        }
        p.try_build()
    };
    assert!(threads(256).is_ok());
    let e = threads(257).expect_err("257 threads must be rejected");
    assert!(e.contains("257 threads: at most 256"), "{e}");

    let locations = |n: usize| {
        let mut p = ProgramBuilder::new("locations");
        for i in 0..n {
            p.lib_var(&format!("x{i}"), 0);
        }
        p.add_thread(ThreadBuilder::new(), Com::Skip);
        p.try_build()
    };
    assert!(locations(rc11_core::MAX_LOCS).is_ok());
    let e = locations(rc11_core::MAX_LOCS + 1).expect_err("a 65537th location must be rejected");
    assert!(e.contains("too many library locations: at most 65536"), "{e}");
}

// ---------------------------------------------------------------------
// Lexer behaviour: columns, whitespace, literals and comments.
// ---------------------------------------------------------------------

/// Columns count characters, not bytes: a token after non-ASCII text on
/// the same line sits one column per character to its right.
#[test]
fn columns_count_chars_after_non_ascii_text() {
    // `é` and `→` are 2- and 3-byte characters.
    let e = err("litmus \"é→x\" @\n");
    assert_eq!((e.span.line, e.span.col), (1, 14));
    assert_eq!(e.msg, "unexpected character `@`");

    let e = err("litmus \"e\"\nabout \"ünïcödé\" var x = 0 thread T { r = zz; }\n");
    assert_eq!((e.span.line, e.span.col), (2, 42));
    assert!(e.msg.contains("undeclared variable or register `zz`"), "{}", e.msg);
}

/// A tab is one column, like any other character.
#[test]
fn a_tab_is_one_column() {
    let e = err("litmus \"e\"\nvar\tx =\t@\n");
    assert_eq!((e.span.line, e.span.col), (2, 9));
    assert_eq!(e.msg, "unexpected character `@`");
}

/// CRLF line endings: `\r` is whitespace, and lines still count from the
/// `\n`.
#[test]
fn crlf_line_endings_keep_lines_and_columns() {
    let src = "litmus \"e\"\r\nvar x = 0\r\nthread T {\r\n  r = x;\r\n}\r\nobserve T.r\r\nexpected { (0) }\r\n";
    let p = parse_litmus(src).expect("CRLF source parses");
    assert_eq!(p.lint.threads[0].span.line, 3);
    assert_eq!((p.lint.expected_span.line, p.lint.expected_span.col), (7, 1));

    let e = err("litmus \"e\"\r\nvar x = 0\r\nthread T {\r\n  r = zz;\r\n}\r\n");
    assert_eq!((e.span.line, e.span.col), (4, 7));
    assert!(e.msg.contains("undeclared variable or register `zz`"), "{}", e.msg);
}

/// Unicode whitespace (no-break space U+00A0, ideographic space U+3000)
/// separates tokens like a space, one column each.
#[test]
fn unicode_whitespace_separates_tokens() {
    let src = "litmus\u{a0}\"e\"\nvar\u{3000}x\u{a0}=\u{3000}0\nthread T { r = x; }\nobserve T.r\nexpected { (0) }\n";
    let p = parse_litmus(src).expect("Unicode whitespace separates tokens");
    assert_eq!(p.lint.vars[0].1, "x");
    assert_eq!((p.lint.vars[0].2.line, p.lint.vars[0].2.col), (2, 5));

    let e = err("litmus \"e\"\nvar\u{3000}x\u{a0}=\u{3000}@\n");
    assert_eq!((e.span.line, e.span.col), (2, 9));
    assert_eq!(e.msg, "unexpected character `@`");
}

/// A string literal must close on its own line; the error points at the
/// opening quote.
#[test]
fn unterminated_strings_are_rejected_at_the_opening_quote() {
    let e = err("litmus \"e\nvar x = 0\n");
    assert_eq!((e.span.line, e.span.col), (1, 8));
    assert_eq!(e.msg, "unterminated string literal");

    let e = err("litmus \"e\"\nabout \"no end");
    assert_eq!((e.span.line, e.span.col), (2, 7));
    assert_eq!(e.msg, "unterminated string literal");
}

/// An integer literal past `i64` is refused at its first digit, naming the
/// digits.
#[test]
fn overflowing_integer_literals_are_rejected() {
    let e = err("litmus \"e\"\nvar x = 9223372036854775808\n");
    assert_eq!((e.span.line, e.span.col), (2, 9));
    assert_eq!(e.msg, "integer literal `9223372036854775808` overflows");

    let p = parse_litmus(
        "litmus \"e\"\nvar x = 9223372036854775807\nthread T { r = x; }\nobserve T.r\nexpected { (-9223372036854775807) }\n",
    )
    .expect("i64::MAX parses");
    assert!(p.expected.contains(&vec![rc11_core::Val::Int(-i64::MAX)]));
}

/// `&`, `|` and `/` only exist doubled.
#[test]
fn lone_and_or_and_slash_are_rejected() {
    for (c, msg) in [
        ('&', "unexpected character `&` (did you mean `&&`?)"),
        ('|', "unexpected character `|` (did you mean `||`?)"),
        ('/', "unexpected character `/`"),
    ] {
        let e = err(&format!("litmus \"e\"\nthread T {{ r = 1 {c} 2; }}\n"));
        assert_eq!((e.span.line, e.span.col), (2, 18), "{c}");
        assert_eq!(e.msg, msg);
    }
}

/// `=rlx` is refused at the `=` wherever it appears, glued or not; a name
/// that merely starts like an annotation is an ordinary assignment.
#[test]
fn rlx_annotation_is_rejected_at_the_equals_sign() {
    let e = err("litmus \"e\"\nvar x = 0\nthread T {\tx=rlx 1; }\n");
    assert_eq!((e.span.line, e.span.col), (3, 13));
    assert_eq!(e.msg, "unknown access annotation `=rlx` (expected `=rel` or `=acq`)");

    let e = err("litmus \"e\"\nvar x = 0\nthread T { r =rlx_ ; }\n");
    assert_eq!((e.span.line, e.span.col), (3, 15));
    assert!(e.msg.contains("undeclared variable or register `rlx_`"), "{}", e.msg);
}

/// A NUL byte is an unexpected character like any other.
#[test]
fn a_nul_byte_is_an_unexpected_character() {
    let e = err("litmus \"e\"\nvar x = \0\n");
    assert_eq!((e.span.line, e.span.col), (2, 9));
    assert_eq!(e.msg, "unexpected character `\0`");
}

/// A file that ends in a `//` comment with no newline reports its
/// end-of-input error just past the comment.
#[test]
fn end_of_input_after_a_final_comment_has_its_span() {
    let e = err("litmus \"e\"\nvar x = 0\n// trailing é");
    assert_eq!((e.span.line, e.span.col), (3, 14));
    assert!(e.msg.ends_with("`thread`, or `observe`, found end of input"), "{}", e.msg);
}

/// `// lint: allow(…)` directives are read from leading, trailing and
/// last-line comments, in source order.
#[test]
fn lint_allows_come_from_every_comment() {
    let src = "// lint: allow(a, b)\n\
               litmus \"e\"\n\
               var x = 0 //lint:allow( c )\n\
               thread T { r = x; }   //  lint:  allow(d\n\
               // not a directive: lint: allow(z)\n\
               /// lint: allow(z)\n\
               observe T.r\n\
               expected { (0) }\n\
               // lint: allow(e,,f)";
    let p = parse_litmus(src).expect("parses");
    assert_eq!(p.lint.allows, ["a", "b", "c", "d", "e", "f"]);
}

/// `//` inside a string literal starts no comment, so no directive is read
/// from it; a real comment later on the same line still counts.
#[test]
fn a_slash_slash_inside_a_string_is_not_a_comment() {
    let src = "litmus \"e\"\n\
               about \"see // lint: allow(s)\" // lint: allow(c)\n\
               var x = 0\n\
               thread T { r = x; }\n\
               observe T.r\n\
               expected { (0) }\n";
    let p = parse_litmus(src).expect("parses");
    assert_eq!(p.about, "see // lint: allow(s)");
    assert_eq!(p.lint.allows, ["c"]);
}
