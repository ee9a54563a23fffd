//! # rc11-lang — program syntax and semantics (Figure 4)
//!
//! The `Com` grammar of Section 3.1 with method-call holes, its small-step
//! semantics in two interchangeable forms, and the program-assembly tooling:
//!
//! * [`ast`] — the grammar, expressions and local-state evaluation;
//! * [`ast_step`] — the literal Figure-4 engine (ε-steps and all);
//! * [`cfg`]/[`machine`] — compilation to flat CFGs so configurations carry
//!   an honest `pc` per thread (the paper's proof outlines quantify over
//!   `pc_t`), plus successor enumeration against the rc11-core memory;
//! * [`builder`] — combinators mirroring the paper's surface syntax;
//! * [`parse`] — the `.litmus` text front-end: litmus tests as data files
//!   (program + observation tuple + exact expected outcome set), compiled
//!   onto the same [`builder`]/[`program`] types;
//! * [`inline`] — hole filling (`C[AO]` → `C[CO]`) for refinement checking.
//!
//! Abstract method calls are delegated through [`machine::ObjectSemantics`],
//! implemented by the rc11-objects crate.

#![warn(missing_docs)]

pub mod ast;
pub mod ast_step;
pub mod builder;
pub mod canon_prog;
pub mod cfg;
pub mod inline;
pub mod machine;
pub mod parse;
pub mod program;

pub use ast::{BinOp, Com, EvalError, Exp, Method, ObjRef, Reg, UnOp, VarRef};
pub use ast_step::{ast_successors, AstConfig};
pub use canon_prog::{canonical_litmus_words, canonical_words};
pub use cfg::{compile, CfgProgram, Instr, ThreadCfg};
pub use inline::{instantiate, CallSite, ObjectImpl};
pub use machine::{
    successors, thread_successors, Config, NoObjects, ObjectSemantics, StepOptions, SuccessorPool,
    SymMaps,
};
pub use parse::{parse_litmus, LintInfo, ParseError, ParsedLitmus, Span, ThreadLintInfo};
pub use program::{ObjKind, Program, ThreadDef};
