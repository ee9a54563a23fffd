//! The `.litmus` text front-end.
//!
//! A small surface syntax for litmus tests so that new scenarios are data,
//! not Rust: shared-variable declarations with initial values, abstract
//! objects, threads written in the Figure-4 statement language with
//! `rel`/`acq` annotations, an `observe` tuple and an exact `expected`
//! outcome-set block. Parsing compiles directly onto the existing
//! [`ProgramBuilder`](crate::builder::ProgramBuilder)/[`Program`] types, so
//! a parsed test runs through exactly the same pipeline as a builder-built
//! one (the corpus round-trip suite holds the two to identical verdicts).
//!
//! # Grammar
//!
//! ```text
//! litmus "NAME"                      // required header
//! about  "free-text description"     // optional
//!
//! var x = 0                          // client shared variable + init
//! libvar y = 0                       // library shared variable + init
//! lock l   / stack s / queue q       // abstract objects
//! register g / counter c
//!
//! thread T1 {                        // threads in program order
//!   x = 1;                           //   relaxed write
//!   y =rel 2;                        //   release write
//!   r1 = x;                          //   relaxed read (rhs is a shared var)
//!   r2 =acq y;                       //   acquire read
//!   r3 = r1 + 1;                     //   local assignment (rhs is local)
//!   r4 = cas(x, 0, 1);              //   RA compare-and-swap (bool result)
//!   r5 = fai(x);                     //   RA fetch-and-increment (old value)
//!   s.push(1);  r6 = s.pop();        //   object methods; `_rel`/`_acq`
//!   if (r1 == 1) { ... } else { ... }
//!   while (r3 != 0) { ... }
//!   do { ... } until (r6 != empty);
//! }
//!
//! observe T1.r1 T1.r2                // the outcome tuple, in order
//! expected {                         // the exact admissible outcome set
//!   (0, 0) (1, 2)
//! }
//! ```
//!
//! Comments run `//` to end of line. Registers are implicitly declared per
//! thread at their first use as an assignment target and are initialised to
//! `⊥`; using a name that is neither a declared shared variable nor an
//! already-assigned register is an error. All errors carry the 1-based
//! line/column where they were detected.

use crate::ast::{BinOp, Com, Exp, Method, ObjRef, Reg, UnOp, VarRef};
use crate::builder::{ProgramBuilder, ThreadBuilder};
use crate::program::{ObjKind, Program};
use rc11_core::Val;
use std::collections::BTreeSet;
use std::fmt;

/// A source position: 1-based line and column (`0:0` when unknown, e.g.
/// the default [`LintInfo`] before the `expected` block is reached).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A parse error: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub msg: String,
    /// Where the error was detected.
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.span, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// A successfully parsed litmus test: the program plus its observation
/// tuple and exact expected outcome set.
#[derive(Debug, Clone)]
pub struct ParsedLitmus {
    /// Test name (the `litmus "…"` header).
    pub name: String,
    /// Free-text description (the optional `about "…"` line; empty if
    /// absent).
    pub about: String,
    /// The compiled program.
    pub prog: Program,
    /// The observation tuple: `(thread index, register)` in declaration
    /// order of the `observe` line.
    pub observe: Vec<(usize, Reg)>,
    /// Display names for the observation tuple (`(thread, register)`).
    pub observe_names: Vec<(String, String)>,
    /// The exact admissible outcome set, one `Vec<Val>` per tuple.
    pub expected: BTreeSet<Vec<Val>>,
    /// Source facts collected for the lint pass (rc11-analyze).
    pub lint: LintInfo,
}

/// Source-position facts the parser records as it goes, so the lint pass
/// (which works over the assembled [`Program`], where spans no longer
/// exist) can point its diagnostics at the offending source location.
#[derive(Debug, Clone, Default)]
pub struct LintInfo {
    /// Every declared shared variable: its reference, name and the span of
    /// the declaration, in declaration order.
    pub vars: Vec<(VarRef, String, Span)>,
    /// Per-thread names, declaration spans and register tables.
    pub threads: Vec<ThreadLintInfo>,
    /// One span per `while`/`do` loop, recorded at the keyword in source
    /// order — i.e. in pre-order of the assembled `Com` trees, threads in
    /// declaration order (the order [`Com::visit`] yields the loop nodes).
    pub loop_spans: Vec<Span>,
    /// First statement of each block that follows a `while (true) { … }`.
    pub unreachable: Vec<Span>,
    /// One span per `observe` entry, parallel to `ParsedLitmus::observe`.
    pub observe_spans: Vec<Span>,
    /// The span of the `expected` block.
    pub expected_span: Span,
    /// Rule names from `// lint: allow(rule, …)` comments in the source.
    pub allows: Vec<String>,
}

/// Lint facts for one thread.
#[derive(Debug, Clone)]
pub struct ThreadLintInfo {
    /// Thread name.
    pub name: String,
    /// Span of the thread declaration.
    pub span: Span,
    /// Register names and first-use spans, in allocation order (index `i`
    /// is `Reg(i)`).
    pub regs: Vec<(String, Span)>,
}

/// The deepest nesting the parser accepts: blocks inside statements, and
/// parenthesised or unary sub-expressions inside expressions, counted
/// together. The parser recurses once per level, so a deeper source is
/// refused with a spanned error instead of overflowing the stack; every
/// later pass over the tree (inlining, compilation, canonical words, lint,
/// printing) inherits the bound.
pub const MAX_DEPTH: usize = 64;

/// Parse one `.litmus` source text.
pub fn parse_litmus(src: &str) -> Result<ParsedLitmus, ParseError> {
    let toks = Lexer::new(src).lex()?;
    let parser = Parser {
        toks,
        pos: 0,
        depth: 0,
        decls: Vec::new(),
        threads: Vec::new(),
        lint: LintInfo { allows: scan_allows(src), ..LintInfo::default() },
    };
    parser.parse()
}

/// Evaluate a register-free expression to a boolean, if it is one — the
/// constant-guard oracle shared by the parser's unreachable-code tracking
/// and the lint pass.
pub fn const_bool(e: &Exp) -> Option<bool> {
    let mut regs = Vec::new();
    e.regs(&mut regs);
    if !regs.is_empty() {
        return None;
    }
    match e.eval(&[]) {
        Ok(Val::Bool(b)) => Some(b),
        _ => None,
    }
}

/// Collect rule names from `// lint: allow(rule, …)` comments. Comments
/// are invisible to the lexer, so the directive is read off the raw text.
fn scan_allows(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in src.lines() {
        let Some(comment) = line.split_once("//").map(|(_, c)| c) else { continue };
        let Some(rest) = comment.trim().strip_prefix("lint:") else { continue };
        let Some(args) = rest.trim().strip_prefix("allow(").and_then(|r| r.split(')').next())
        else {
            continue;
        };
        for rule in args.split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                out.push(rule.to_string());
            }
        }
    }
    out
}

/// Print a value in the form the `expected { … }` block parses back —
/// the printer dual of the value-literal grammar, used by everything that
/// emits `.litmus` text (the fuzz repro printer, `rc11 run
/// --show-outcomes`) so printer and parser cannot drift apart.
pub fn val_literal(v: &Val) -> String {
    match v {
        Val::Int(n) => n.to_string(),
        Val::Bool(b) => b.to_string(),
        Val::Empty => "empty".to_string(),
        Val::Bot => "bot".to_string(),
    }
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    /// `=`
    Assign,
    /// `=rel`
    AssignRel,
    /// `=acq`
    AssignAcq,
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Semi,
    Dot,
    Plus,
    Minus,
    Star,
    Percent,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Bang,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(n) => write!(f, "`{n}`"),
            Tok::Str(s) => write!(f, "\"{s}\""),
            Tok::Assign => write!(f, "`=`"),
            Tok::AssignRel => write!(f, "`=rel`"),
            Tok::AssignAcq => write!(f, "`=acq`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Star => write!(f, "`*`"),
            Tok::Percent => write!(f, "`%`"),
            Tok::EqEq => write!(f, "`==`"),
            Tok::NotEq => write!(f, "`!=`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Le => write!(f, "`<=`"),
            Tok::Gt => write!(f, "`>`"),
            Tok::Ge => write!(f, "`>=`"),
            Tok::AndAnd => write!(f, "`&&`"),
            Tok::OrOr => write!(f, "`||`"),
            Tok::Bang => write!(f, "`!`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { chars: src.chars().peekable(), line: 1, col: 1 }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn err(&self, span: Span, msg: impl Into<String>) -> ParseError {
        ParseError { msg: msg.into(), span }
    }

    fn span(&self) -> Span {
        Span { line: self.line, col: self.col }
    }

    fn ident(&mut self, first: char) -> String {
        let mut s = String::new();
        s.push(first);
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == '_' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        s
    }

    /// Tokenise the whole input.
    fn lex(mut self) -> Result<Vec<(Tok, Span)>, ParseError> {
        let mut out = Vec::new();
        loop {
            // Skip whitespace and `//` comments.
            loop {
                match self.peek() {
                    Some(c) if c.is_whitespace() => {
                        self.bump();
                    }
                    Some('/') => {
                        let span = self.span();
                        self.bump();
                        if self.peek() == Some('/') {
                            while let Some(c) = self.bump() {
                                if c == '\n' {
                                    break;
                                }
                            }
                        } else {
                            return Err(self.err(span, "unexpected character `/`"));
                        }
                    }
                    _ => break,
                }
            }
            let span = self.span();
            let Some(c) = self.bump() else {
                out.push((Tok::Eof, span));
                return Ok(out);
            };
            let tok = match c {
                '(' => Tok::LParen,
                ')' => Tok::RParen,
                '{' => Tok::LBrace,
                '}' => Tok::RBrace,
                ',' => Tok::Comma,
                ';' => Tok::Semi,
                '.' => Tok::Dot,
                '+' => Tok::Plus,
                '-' => Tok::Minus,
                '*' => Tok::Star,
                '%' => Tok::Percent,
                '=' => match self.peek() {
                    Some('=') => {
                        self.bump();
                        Tok::EqEq
                    }
                    // An annotation glued to the `=`: `=rel` / `=acq`.
                    // Other identifiers glued to `=` are ordinary
                    // assignments (`r1=x;`) — except annotation-like names
                    // from other memory models (`=rlx`, `=sc`, …), which
                    // get the targeted diagnostic instead of a confusing
                    // undeclared-identifier error downstream.
                    Some(a) if a.is_ascii_alphabetic() => {
                        let ident_span = self.span();
                        let first = self.bump().unwrap();
                        let ann = self.ident(first);
                        match ann.as_str() {
                            "rel" => Tok::AssignRel,
                            "acq" => Tok::AssignAcq,
                            "rlx" | "sc" | "con" | "acqrel" | "acq_rel" | "relacq" | "rel_acq" => {
                                return Err(self.err(
                                    span,
                                    format!(
                                        "unknown access annotation `={ann}` \
                                         (expected `=rel` or `=acq`)"
                                    ),
                                ))
                            }
                            _ => {
                                // `r1=x`: an assignment with no space —
                                // emit both tokens and move on.
                                out.push((Tok::Assign, span));
                                out.push((Tok::Ident(ann), ident_span));
                                continue;
                            }
                        }
                    }
                    _ => Tok::Assign,
                },
                '!' => {
                    if self.peek() == Some('=') {
                        self.bump();
                        Tok::NotEq
                    } else {
                        Tok::Bang
                    }
                }
                '<' => {
                    if self.peek() == Some('=') {
                        self.bump();
                        Tok::Le
                    } else {
                        Tok::Lt
                    }
                }
                '>' => {
                    if self.peek() == Some('=') {
                        self.bump();
                        Tok::Ge
                    } else {
                        Tok::Gt
                    }
                }
                '&' => {
                    if self.peek() == Some('&') {
                        self.bump();
                        Tok::AndAnd
                    } else {
                        return Err(self.err(span, "unexpected character `&` (did you mean `&&`?)"));
                    }
                }
                '|' => {
                    if self.peek() == Some('|') {
                        self.bump();
                        Tok::OrOr
                    } else {
                        return Err(self.err(span, "unexpected character `|` (did you mean `||`?)"));
                    }
                }
                '"' => {
                    let mut s = String::new();
                    loop {
                        match self.bump() {
                            Some('"') => break,
                            Some('\n') | None => {
                                return Err(self.err(span, "unterminated string literal"))
                            }
                            Some(c) => s.push(c),
                        }
                    }
                    Tok::Str(s)
                }
                c if c.is_ascii_digit() => {
                    let mut n = String::new();
                    n.push(c);
                    while let Some(d) = self.peek() {
                        if d.is_ascii_digit() {
                            n.push(d);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    let v: i64 = n
                        .parse()
                        .map_err(|_| self.err(span, format!("integer literal `{n}` overflows")))?;
                    Tok::Int(v)
                }
                c if c.is_ascii_alphabetic() || c == '_' => Tok::Ident(self.ident(c)),
                other => return Err(self.err(span, format!("unexpected character `{other}`"))),
            };
            out.push((tok, span));
        }
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// What a top-level identifier resolves to.
#[derive(Debug, Clone, Copy)]
enum Decl {
    Var(VarRef),
    Obj(ObjRef, ObjKind),
}

/// Per-thread parsing state: register names in allocation order.
struct ThreadCtx {
    name: String,
    span: Span,
    tb: ThreadBuilder,
    regs: Vec<(String, Span)>,
}

impl ThreadCtx {
    /// Resolve a register name, or `None` if never assigned.
    fn lookup(&self, name: &str) -> Option<Reg> {
        self.regs.iter().position(|(r, _)| r == name).map(|i| Reg(i as u16))
    }

    /// Resolve a register name as an assignment target, declaring it on
    /// first use (initialised to `⊥`).
    fn target(&mut self, name: &str, span: Span) -> Reg {
        match self.lookup(name) {
            Some(r) => r,
            None => {
                let r = self.tb.reg(name);
                self.regs.push((name.to_string(), span));
                r
            }
        }
    }
}

struct Parser {
    toks: Vec<(Tok, Span)>,
    pos: usize,
    /// Current nesting depth (see [`MAX_DEPTH`]).
    depth: usize,
    decls: Vec<(String, Decl)>,
    threads: Vec<ThreadCtx>,
    lint: LintInfo,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].0
    }

    fn span(&self) -> Span {
        self.toks[self.pos].1
    }

    fn bump(&mut self) -> (Tok, Span) {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, span: Span, msg: impl Into<String>) -> ParseError {
        ParseError { msg: msg.into(), span }
    }

    /// Enter one nesting level opened at `span`. Callers leave it with
    /// `self.depth -= 1` on success; an error ends the whole parse.
    fn nest(&mut self, span: Span) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(span, format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<Span, ParseError> {
        let span = self.span();
        if self.peek() == want {
            self.bump();
            Ok(span)
        } else {
            Err(self.err(span, format!("expected {want} {what}, found {}", self.peek())))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(String, Span), ParseError> {
        let span = self.span();
        match self.bump().0 {
            Tok::Ident(s) => Ok((s, span)),
            other => Err(self.err(span, format!("expected {what}, found {other}"))),
        }
    }

    /// Accept a keyword (a specific identifier).
    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn lookup_decl(&self, name: &str) -> Option<Decl> {
        self.decls.iter().find(|(n, _)| n == name).map(|(_, d)| *d)
    }

    fn parse(mut self) -> Result<ParsedLitmus, ParseError> {
        // Header.
        if !self.eat_kw("litmus") {
            return Err(self.err(self.span(), "a litmus file must start with `litmus \"name\"`"));
        }
        let name = match self.bump() {
            (Tok::Str(s), _) => s,
            (other, span) => {
                return Err(self.err(span, format!("expected the test name string, found {other}")))
            }
        };
        let mut about = String::new();
        if self.eat_kw("about") {
            about = match self.bump() {
                (Tok::Str(s), _) => s,
                (other, span) => {
                    return Err(
                        self.err(span, format!("expected the about string, found {other}"))
                    )
                }
            };
        }

        let mut pb = ProgramBuilder::new(name.clone());

        // Declarations and threads.
        let mut bodies: Vec<Com> = Vec::new();
        loop {
            let span = self.span();
            match self.peek().clone() {
                Tok::Ident(kw) if kw == "var" || kw == "libvar" => {
                    self.bump();
                    let (vname, vspan) = self.expect_ident("a variable name")?;
                    self.check_fresh(&vname, vspan)?;
                    self.expect(&Tok::Assign, "after the variable name")?;
                    let init = self.parse_int_literal("as the initial value")?;
                    let var = if kw == "var" {
                        pb.client_var(&vname, init)
                    } else {
                        pb.lib_var(&vname, init)
                    };
                    self.lint.vars.push((var, vname.clone(), vspan));
                    self.decls.push((vname, Decl::Var(var)));
                }
                Tok::Ident(kw)
                    if matches!(
                        kw.as_str(),
                        "lock" | "stack" | "queue" | "register" | "counter"
                    ) =>
                {
                    self.bump();
                    let kind = match kw.as_str() {
                        "lock" => ObjKind::Lock,
                        "stack" => ObjKind::Stack,
                        "queue" => ObjKind::Queue,
                        "register" => ObjKind::Register,
                        _ => ObjKind::Counter,
                    };
                    let (oname, ospan) = self.expect_ident("an object name")?;
                    self.check_fresh(&oname, ospan)?;
                    let obj = pb.object(&oname, kind);
                    self.decls.push((oname, Decl::Obj(obj, kind)));
                }
                Tok::Ident(kw) if kw == "thread" => {
                    self.bump();
                    let (tname, tspan) = self.expect_ident("a thread name")?;
                    if self.threads.iter().any(|t| t.name == tname) {
                        return Err(
                            self.err(tspan, format!("duplicate thread name `{tname}`"))
                        );
                    }
                    self.threads.push(ThreadCtx {
                        name: tname,
                        span: tspan,
                        tb: ThreadBuilder::new(),
                        regs: Vec::new(),
                    });
                    self.expect(&Tok::LBrace, "to open the thread body")?;
                    let ti = self.threads.len() - 1;
                    let body = self.parse_stmts(ti)?;
                    self.expect(&Tok::RBrace, "to close the thread body")?;
                    bodies.push(body);
                }
                Tok::Ident(kw) if kw == "observe" => break,
                Tok::Ident(kw) if kw == "expected" => {
                    return Err(self.err(
                        span,
                        "`expected` must come after an `observe` line naming the outcome tuple",
                    ))
                }
                other => {
                    return Err(self.err(
                        span,
                        format!(
                            "expected a declaration (`var`, `lock`, `stack`, `queue`, \
                             `register`, `counter`), `thread`, or `observe`, found {other}"
                        ),
                    ))
                }
            }
        }

        if self.threads.is_empty() {
            return Err(self.err(self.span(), "a litmus test needs at least one `thread`"));
        }

        // `observe T.r ...`
        if !self.eat_kw("observe") {
            return Err(self.err(self.span(), "expected `observe`"));
        }
        let mut observe: Vec<(usize, Reg)> = Vec::new();
        let mut observe_names: Vec<(String, String)> = Vec::new();
        loop {
            match self.peek() {
                Tok::Ident(s) if s != "expected" => {
                    let (tname, tspan) = self.expect_ident("a thread name")?;
                    let Some(ti) = self.threads.iter().position(|t| t.name == tname) else {
                        return Err(self.err(tspan, format!("unknown thread `{tname}` in observe")));
                    };
                    self.expect(&Tok::Dot, "between thread and register")?;
                    let (rname, rspan) = self.expect_ident("a register name")?;
                    let Some(reg) = self.threads[ti].lookup(&rname) else {
                        return Err(self.err(
                            rspan,
                            format!("thread `{tname}` has no register `{rname}`"),
                        ));
                    };
                    observe.push((ti, reg));
                    observe_names.push((tname, rname));
                    self.lint.observe_spans.push(tspan);
                    // Optional separating comma.
                    if self.peek() == &Tok::Comma {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
        if observe.is_empty() {
            return Err(self.err(self.span(), "`observe` names at least one `thread.register`"));
        }

        // `expected { (v, …) … }`
        self.lint.expected_span = self.span();
        if !self.eat_kw("expected") {
            return Err(self.err(self.span(), "expected the `expected { … }` block"));
        }
        self.expect(&Tok::LBrace, "to open the expected outcome set")?;
        let mut expected: BTreeSet<Vec<Val>> = BTreeSet::new();
        while self.peek() != &Tok::RBrace {
            let tspan = self.expect(&Tok::LParen, "to open an outcome tuple")?;
            let mut tuple = Vec::new();
            loop {
                tuple.push(self.parse_val_literal()?);
                match self.bump() {
                    (Tok::Comma, _) => continue,
                    (Tok::RParen, _) => break,
                    (other, span) => {
                        return Err(
                            self.err(span, format!("expected `,` or `)` in outcome tuple, found {other}"))
                        )
                    }
                }
            }
            if tuple.len() != observe.len() {
                return Err(self.err(
                    tspan,
                    format!(
                        "outcome tuple has {} values but `observe` names {} registers",
                        tuple.len(),
                        observe.len()
                    ),
                ));
            }
            expected.insert(tuple);
            if self.peek() == &Tok::Comma {
                self.bump();
            }
        }
        self.expect(&Tok::RBrace, "to close the expected outcome set")?;
        if self.peek() != &Tok::Eof {
            return Err(self.err(
                self.span(),
                format!("trailing input after the expected block: {}", self.peek()),
            ));
        }

        // Assemble the program.
        for (ctx, body) in self.threads.drain(..).zip(bodies) {
            self.lint.threads.push(ThreadLintInfo {
                name: ctx.name.clone(),
                span: ctx.span,
                regs: ctx.regs.clone(),
            });
            pb.add_thread(ctx.tb, body);
        }
        let prog = pb.build();
        if let Err(e) = prog.validate() {
            return Err(ParseError { msg: e, span: Span { line: 1, col: 1 } });
        }
        Ok(ParsedLitmus { name, about, prog, observe, observe_names, expected, lint: self.lint })
    }

    fn check_fresh(&self, name: &str, span: Span) -> Result<(), ParseError> {
        if self.lookup_decl(name).is_some() {
            return Err(self.err(span, format!("duplicate declaration of `{name}`")));
        }
        Ok(())
    }

    fn parse_int_literal(&mut self, what: &str) -> Result<i64, ParseError> {
        let neg = if self.peek() == &Tok::Minus {
            self.bump();
            true
        } else {
            false
        };
        match self.bump() {
            (Tok::Int(n), _) => Ok(if neg { -n } else { n }),
            (other, span) => Err(self.err(span, format!("expected an integer {what}, found {other}"))),
        }
    }

    fn parse_val_literal(&mut self) -> Result<Val, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                let span = self.span();
                self.bump();
                match s.as_str() {
                    "true" => Ok(Val::Bool(true)),
                    "false" => Ok(Val::Bool(false)),
                    "empty" => Ok(Val::Empty),
                    "bot" => Ok(Val::Bot),
                    other => Err(self.err(
                        span,
                        format!(
                            "expected a value (integer, `true`, `false`, `empty`, `bot`), \
                             found `{other}`"
                        ),
                    )),
                }
            }
            _ => Ok(Val::Int(self.parse_int_literal("value")?)),
        }
    }

    // -----------------------------------------------------------------
    // Statements
    // -----------------------------------------------------------------

    fn parse_stmts(&mut self, ti: usize) -> Result<Com, ParseError> {
        let mut out = Com::Skip;
        // Statements after a `while (true) { … }` can never run (the
        // language has no `break`); flag the first one per block.
        let mut diverged = false;
        let mut flagged = false;
        while self.peek() != &Tok::RBrace && self.peek() != &Tok::Eof {
            let span = self.span();
            if diverged && !flagged {
                self.lint.unreachable.push(span);
                flagged = true;
            }
            let s = self.parse_stmt(ti)?;
            if let Com::While { cond, .. } = &s {
                diverged = diverged || const_bool(cond) == Some(true);
            }
            out = out.then(s);
        }
        Ok(out)
    }

    fn parse_block(&mut self, ti: usize) -> Result<Com, ParseError> {
        let span = self.expect(&Tok::LBrace, "to open a block")?;
        self.nest(span)?;
        let body = self.parse_stmts(ti)?;
        self.depth -= 1;
        self.expect(&Tok::RBrace, "to close a block")?;
        Ok(body)
    }

    fn parse_stmt(&mut self, ti: usize) -> Result<Com, ParseError> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Ident(kw) if kw == "if" => {
                self.bump();
                self.expect(&Tok::LParen, "to open the condition")?;
                let cond = self.parse_exp(ti)?;
                self.expect(&Tok::RParen, "to close the condition")?;
                let then_ = self.parse_block(ti)?;
                let else_ = if self.eat_kw("else") { self.parse_block(ti)? } else { Com::Skip };
                Ok(Com::If { cond, then_: Box::new(then_), else_: Box::new(else_) })
            }
            Tok::Ident(kw) if kw == "while" => {
                self.bump();
                self.lint.loop_spans.push(span);
                self.expect(&Tok::LParen, "to open the condition")?;
                let cond = self.parse_exp(ti)?;
                self.expect(&Tok::RParen, "to close the condition")?;
                let body = self.parse_block(ti)?;
                Ok(Com::While { cond, body: Box::new(body) })
            }
            Tok::Ident(kw) if kw == "do" => {
                self.bump();
                self.lint.loop_spans.push(span);
                let body = self.parse_block(ti)?;
                if !self.eat_kw("until") {
                    return Err(self.err(self.span(), "expected `until` after a `do` block"));
                }
                self.expect(&Tok::LParen, "to open the until-condition")?;
                let cond = self.parse_exp(ti)?;
                self.expect(&Tok::RParen, "to close the until-condition")?;
                self.expect(&Tok::Semi, "after `do … until (…)`")?;
                Ok(Com::DoUntil { body: Box::new(body), cond })
            }
            Tok::Ident(kw) if kw == "skip" => {
                self.bump();
                self.expect(&Tok::Semi, "after `skip`")?;
                Ok(Com::Skip)
            }
            Tok::Ident(name) => {
                // `name.method(...)` | `name = …` | `name =rel …` | `name =acq …`
                if self.peek2() == &Tok::Dot {
                    let stmt = self.parse_method_call(ti, None)?;
                    self.expect(&Tok::Semi, "after a method call")?;
                    return Ok(stmt);
                }
                self.bump();
                match self.bump() {
                    (Tok::AssignRel, _) => {
                        // Release write: LHS must be a shared variable.
                        let var = self.resolve_var(&name, span)?;
                        let exp = self.parse_exp(ti)?;
                        self.expect(&Tok::Semi, "after a write")?;
                        Ok(Com::Write { var, exp, rel: true })
                    }
                    (Tok::AssignAcq, aspan) => {
                        // Acquire read: LHS register, RHS shared variable.
                        let (vname, vspan) = self.expect_ident("a shared variable to read")?;
                        let var = self.resolve_var(&vname, vspan)?;
                        if self.lookup_decl(&name).is_some() {
                            return Err(self.err(
                                aspan,
                                format!("`{name}` is a shared location, not a register"),
                            ));
                        }
                        let reg = self.threads[ti].target(&name, span);
                        self.expect(&Tok::Semi, "after a read")?;
                        Ok(Com::Read { reg, var, acq: true })
                    }
                    (Tok::Assign, _) => self.parse_assign_rhs(ti, name, span),
                    (other, ospan) => Err(self.err(
                        ospan,
                        format!("expected `=`, `=rel`, `=acq` or `.` after `{name}`, found {other}"),
                    )),
                }
            }
            other => Err(self.err(span, format!("expected a statement, found {other}"))),
        }
    }

    /// After `name =`: write (if `name` is a var), or read / CAS / FAI /
    /// method-with-result / local assignment (if `name` is a register).
    fn parse_assign_rhs(&mut self, ti: usize, name: String, span: Span) -> Result<Com, ParseError> {
        match self.lookup_decl(&name) {
            Some(Decl::Var(var)) => {
                let exp = self.parse_exp(ti)?;
                self.expect(&Tok::Semi, "after a write")?;
                Ok(Com::Write { var, exp, rel: false })
            }
            Some(Decl::Obj(..)) => {
                Err(self.err(span, format!("object `{name}` cannot be assigned; call a method on it")))
            }
            None => {
                // Destination is a register.
                match self.peek().clone() {
                    // `r = cas(x, u, v);`
                    Tok::Ident(kw) if kw == "cas" && self.peek2() == &Tok::LParen => {
                        self.bump();
                        self.bump();
                        let (vname, vspan) = self.expect_ident("the CAS target variable")?;
                        let var = self.resolve_var(&vname, vspan)?;
                        self.expect(&Tok::Comma, "after the CAS target")?;
                        let expect = self.parse_exp(ti)?;
                        self.expect(&Tok::Comma, "after the CAS expected value")?;
                        let new = self.parse_exp(ti)?;
                        self.expect(&Tok::RParen, "to close the CAS")?;
                        self.expect(&Tok::Semi, "after a CAS")?;
                        let reg = self.threads[ti].target(&name, span);
                        Ok(Com::Cas { reg, var, expect, new })
                    }
                    // `r = fai(x);`
                    Tok::Ident(kw) if kw == "fai" && self.peek2() == &Tok::LParen => {
                        self.bump();
                        self.bump();
                        let (vname, vspan) = self.expect_ident("the FAI target variable")?;
                        let var = self.resolve_var(&vname, vspan)?;
                        self.expect(&Tok::RParen, "to close the FAI")?;
                        self.expect(&Tok::Semi, "after a FAI")?;
                        let reg = self.threads[ti].target(&name, span);
                        Ok(Com::Fai { reg, var })
                    }
                    // `r = obj.method(...);`
                    Tok::Ident(oname)
                        if self.peek2() == &Tok::Dot
                            && matches!(self.lookup_decl(&oname), Some(Decl::Obj(..))) =>
                    {
                        let stmt = self.parse_method_call(ti, Some((name, span)))?;
                        self.expect(&Tok::Semi, "after a method call")?;
                        Ok(stmt)
                    }
                    // `r = x;` — a read if `x` is a declared variable.
                    Tok::Ident(vname)
                        if matches!(self.lookup_decl(&vname), Some(Decl::Var(_)))
                            && matches!(
                                self.peek2(),
                                Tok::Semi
                            ) =>
                    {
                        self.bump();
                        let var = self.resolve_var(&vname, span).unwrap();
                        self.bump(); // the semicolon
                        let reg = self.threads[ti].target(&name, span);
                        Ok(Com::Read { reg, var, acq: false })
                    }
                    // Otherwise: a local assignment over registers.
                    _ => {
                        let exp = self.parse_exp(ti)?;
                        self.expect(&Tok::Semi, "after an assignment")?;
                        let reg = self.threads[ti].target(&name, span);
                        Ok(Com::Assign(reg, exp))
                    }
                }
            }
        }
    }

    /// `obj.method(args)` with an optional result register.
    fn parse_method_call(
        &mut self,
        ti: usize,
        result: Option<(String, Span)>,
    ) -> Result<Com, ParseError> {
        let (oname, ospan) = self.expect_ident("an object name")?;
        let (obj, kind) = match self.lookup_decl(&oname) {
            Some(Decl::Obj(o, k)) => (o, k),
            Some(Decl::Var(_)) => {
                return Err(self.err(ospan, format!("`{oname}` is a variable, not an object")))
            }
            None => return Err(self.err(ospan, format!("undeclared object `{oname}`"))),
        };
        self.expect(&Tok::Dot, "after the object name")?;
        let (mname, mspan) = self.expect_ident("a method name")?;
        // Method table: name → (method, sync, needs_arg, has_result).
        let (method, sync, needs_arg, has_result) = match (kind, mname.as_str()) {
            (ObjKind::Lock, "acquire") => (Method::Acquire, true, false, true),
            (ObjKind::Lock, "acquirev") => (Method::AcquireV, true, false, true),
            (ObjKind::Lock, "release") => (Method::Release, true, false, false),
            (ObjKind::Stack, "push") => (Method::Push, false, true, false),
            (ObjKind::Stack, "push_rel") => (Method::Push, true, true, false),
            (ObjKind::Stack, "pop") => (Method::Pop, false, false, true),
            (ObjKind::Stack, "pop_acq") => (Method::Pop, true, false, true),
            (ObjKind::Queue, "enq") => (Method::Enq, false, true, false),
            (ObjKind::Queue, "enq_rel") => (Method::Enq, true, true, false),
            (ObjKind::Queue, "deq") => (Method::Deq, false, false, true),
            (ObjKind::Queue, "deq_acq") => (Method::Deq, true, false, true),
            (ObjKind::Register, "read") => (Method::RegRead, false, false, true),
            (ObjKind::Register, "read_acq") => (Method::RegRead, true, false, true),
            (ObjKind::Register, "write") => (Method::RegWrite, false, true, false),
            (ObjKind::Register, "write_rel") => (Method::RegWrite, true, true, false),
            (ObjKind::Counter, "inc") => (Method::Inc, true, false, true),
            (k, m) => {
                return Err(self.err(
                    mspan,
                    format!("object `{oname}` ({k:?}) has no method `{m}`"),
                ))
            }
        };
        if result.is_some() && !has_result {
            return Err(self.err(
                mspan,
                format!("method `{mname}` returns no value; drop the `… =` binding"),
            ));
        }
        self.expect(&Tok::LParen, "to open the argument list")?;
        let arg = if needs_arg {
            let e = self.parse_exp(ti)?;
            Some(e)
        } else {
            None
        };
        self.expect(&Tok::RParen, "to close the argument list")?;
        let reg = match result {
            Some((rname, rspan)) => Some(self.threads[ti].target(&rname, rspan)),
            None => None,
        };
        Ok(Com::MethodCall { reg, obj, method, arg, sync })
    }

    fn resolve_var(&self, name: &str, span: Span) -> Result<VarRef, ParseError> {
        match self.lookup_decl(name) {
            Some(Decl::Var(v)) => Ok(v),
            Some(Decl::Obj(..)) => {
                Err(self.err(span, format!("`{name}` is an object, not a shared variable")))
            }
            None => Err(self.err(span, format!("undeclared shared variable `{name}`"))),
        }
    }

    // -----------------------------------------------------------------
    // Expressions (local: registers and constants only)
    // -----------------------------------------------------------------

    fn parse_exp(&mut self, ti: usize) -> Result<Exp, ParseError> {
        self.nest(self.span())?;
        let e = self.parse_or(ti)?;
        self.depth -= 1;
        Ok(e)
    }

    fn parse_or(&mut self, ti: usize) -> Result<Exp, ParseError> {
        let mut e = self.parse_and(ti)?;
        while self.peek() == &Tok::OrOr {
            self.bump();
            let r = self.parse_and(ti)?;
            e = Exp::Bin(BinOp::Or, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn parse_and(&mut self, ti: usize) -> Result<Exp, ParseError> {
        let mut e = self.parse_cmp(ti)?;
        while self.peek() == &Tok::AndAnd {
            self.bump();
            let r = self.parse_cmp(ti)?;
            e = Exp::Bin(BinOp::And, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn parse_cmp(&mut self, ti: usize) -> Result<Exp, ParseError> {
        let e = self.parse_add(ti)?;
        let op = match self.peek() {
            Tok::EqEq => Some((BinOp::Eq, false)),
            Tok::NotEq => Some((BinOp::Ne, false)),
            Tok::Lt => Some((BinOp::Lt, false)),
            Tok::Le => Some((BinOp::Le, false)),
            Tok::Gt => Some((BinOp::Lt, true)),
            Tok::Ge => Some((BinOp::Le, true)),
            _ => None,
        };
        if let Some((op, swap)) = op {
            self.bump();
            let r = self.parse_add(ti)?;
            let (a, b) = if swap { (r, e) } else { (e, r) };
            return Ok(Exp::Bin(op, Box::new(a), Box::new(b)));
        }
        Ok(e)
    }

    fn parse_add(&mut self, ti: usize) -> Result<Exp, ParseError> {
        let mut e = self.parse_mul(ti)?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let r = self.parse_mul(ti)?;
            e = Exp::Bin(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn parse_mul(&mut self, ti: usize) -> Result<Exp, ParseError> {
        let mut e = self.parse_unary(ti)?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let r = self.parse_unary(ti)?;
            e = Exp::Bin(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn parse_unary(&mut self, ti: usize) -> Result<Exp, ParseError> {
        match self.peek() {
            Tok::Bang | Tok::Minus => {
                let (op, span) = self.bump();
                self.nest(span)?;
                let e = self.parse_unary(ti)?;
                self.depth -= 1;
                if op == Tok::Bang {
                    return Ok(Exp::Un(UnOp::Not, Box::new(e)));
                }
                // Fold constant negation so `-3` is a literal.
                if let Exp::Val(Val::Int(n)) = e {
                    Ok(Exp::Val(Val::Int(-n)))
                } else {
                    Ok(Exp::Un(UnOp::Neg, Box::new(e)))
                }
            }
            _ => self.parse_primary(ti),
        }
    }

    fn parse_primary(&mut self, ti: usize) -> Result<Exp, ParseError> {
        let span = self.span();
        match self.bump().0 {
            Tok::Int(n) => Ok(Exp::Val(Val::Int(n))),
            Tok::LParen => {
                let e = self.parse_exp(ti)?;
                self.expect(&Tok::RParen, "to close the parenthesised expression")?;
                Ok(e)
            }
            Tok::Ident(s) => match s.as_str() {
                "true" => Ok(Exp::Val(Val::Bool(true))),
                "false" => Ok(Exp::Val(Val::Bool(false))),
                "empty" => Ok(Exp::Val(Val::Empty)),
                "bot" => Ok(Exp::Val(Val::Bot)),
                "even" => {
                    self.expect(&Tok::LParen, "to open `even(…)`")?;
                    let e = self.parse_exp(ti)?;
                    self.expect(&Tok::RParen, "to close `even(…)`")?;
                    Ok(Exp::Un(UnOp::Even, Box::new(e)))
                }
                name => {
                    if let Some(r) = self.threads[ti].lookup(name) {
                        return Ok(Exp::Reg(r));
                    }
                    match self.lookup_decl(name) {
                        Some(Decl::Var(_)) => Err(self.err(
                            span,
                            format!(
                                "shared variable `{name}` cannot appear inside an expression; \
                                 read it into a register first"
                            ),
                        )),
                        Some(Decl::Obj(..)) => Err(self.err(
                            span,
                            format!("object `{name}` cannot appear inside an expression"),
                        )),
                        None => Err(self.err(
                            span,
                            format!(
                                "undeclared variable or register `{name}` \
                                 (registers must be assigned before first use)"
                            ),
                        )),
                    }
                }
            },
            other => Err(self.err(span, format!("expected an expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MP_RLX: &str = r#"
        litmus "MP+rlx"
        about "relaxed message passing admits the stale data read"
        var d = 0
        var f = 0
        thread T1 { d = 5; f = 1; }
        thread T2 { r1 = f; r2 = d; }
        observe T2.r1 T2.r2
        expected { (0, 0) (0, 5) (1, 0) (1, 5) }
    "#;

    #[test]
    fn parses_relaxed_mp() {
        let p = parse_litmus(MP_RLX).unwrap();
        assert_eq!(p.name, "MP+rlx");
        assert_eq!(p.prog.n_threads(), 2);
        assert_eq!(p.observe.len(), 2);
        assert_eq!(p.expected.len(), 4);
        assert_eq!(p.observe_names[0], ("T2".to_string(), "r1".to_string()));
    }

    #[test]
    fn annotations_and_rmw_parse() {
        let src = r#"
            litmus "anns"
            var x = 0
            thread T1 { x =rel 1; r0 = cas(x, 1, 2); r1 = fai(x); }
            thread T2 { r2 =acq x; }
            observe T1.r0 T1.r1 T2.r2
            expected { }
        "#;
        let p = parse_litmus(src).unwrap();
        assert_eq!(p.prog.threads[0].n_regs, 2);
        assert_eq!(p.prog.threads[1].n_regs, 1);
    }

    #[test]
    fn control_flow_and_objects_parse() {
        let src = r#"
            litmus "cf"
            var d = 0
            stack s
            lock l
            queue q
            thread T1 {
                d = 5;
                s.push_rel(1);
                l.acquire(); l.release();
                q.enq(7);
            }
            thread T2 {
                do { r1 = s.pop_acq(); } until (r1 == 1);
                if (r1 == 1) { r2 = d; } else { r2 = 0 - 1; }
                while (r2 < 0) { r2 = r2 + 1; }
                r3 = q.deq();
            }
            observe T2.r1 T2.r2 T2.r3
            expected { (1, 5, 7) (1, 5, empty) }
        "#;
        let p = parse_litmus(src).unwrap();
        assert_eq!(p.prog.objects.len(), 3);
        assert_eq!(p.expected.len(), 2);
    }

    #[test]
    fn error_spans_point_at_the_offence() {
        // Unknown annotation on line 4.
        let src = "litmus \"e\"\nvar x = 0\nthread T {\n  x =rlx 1;\n}\nobserve T.x\nexpected {}";
        let e = parse_litmus(src).unwrap_err();
        assert_eq!(e.span.line, 4);
        assert!(e.msg.contains("=rlx"), "{}", e.msg);
    }

    #[test]
    fn observed_register_must_exist() {
        let src = r#"
            litmus "e"
            var x = 0
            thread T { r1 = x; }
            observe T.r9
            expected { (0) }
        "#;
        let e = parse_litmus(src).unwrap_err();
        assert!(e.msg.contains("no register `r9`"), "{}", e.msg);
    }

    #[test]
    fn negative_literals_parse_everywhere() {
        let src = r#"
            litmus "neg"
            var x = -3
            thread T { r1 = x; r2 = -7; }
            observe T.r1 T.r2
            expected { (-3, -7) }
        "#;
        let p = parse_litmus(src).unwrap();
        assert!(p.expected.contains(&vec![Val::Int(-3), Val::Int(-7)]));
    }
}
