//! Experiment E4: the literal Figure-4 AST engine and the compiled CFG
//! machine agree on program outcomes.
//!
//! Both engines exhaustively explore the same programs; the sets of
//! terminal `(locals, canonical memory)` pairs must coincide (the engines
//! differ in ε-step bookkeeping and local fusion, neither of which is
//! observable).

use rc11::prelude::*;
use rc11_lang::ast_step::{ast_successors, AstConfig};
use rc11_lang::machine::{successors, ObjectSemantics};
use std::collections::HashSet;

type Outcome = (Vec<Vec<Val>>, Combined);

fn ast_terminals(prog: &Program, objs: &dyn ObjectSemantics) -> HashSet<Outcome> {
    let mut seen = HashSet::new();
    let mut frontier = vec![AstConfig::initial(prog)];
    seen.insert(frontier[0].canonical());
    let mut out = HashSet::new();
    while let Some(c) = frontier.pop() {
        let succs = ast_successors(prog, objs, &c);
        if succs.is_empty() {
            assert!(c.terminated(), "AST engine stuck non-terminally");
            out.insert((c.locals.clone(), c.mem.canonical()));
            continue;
        }
        for (_, s) in succs {
            if seen.insert(s.canonical()) {
                frontier.push(s);
            }
        }
    }
    out
}

fn cfg_terminals(
    prog: &CfgProgram,
    objs: &dyn ObjectSemantics,
    fuse: bool,
) -> HashSet<Outcome> {
    let mut seen = HashSet::new();
    let mut frontier = vec![Config::initial(prog)];
    seen.insert(frontier[0].canonical());
    let mut out = HashSet::new();
    let opts = StepOptions { fuse_local: fuse };
    while let Some(c) = frontier.pop() {
        let succs = successors(prog, objs, &c, opts);
        if succs.is_empty() {
            out.insert((c.register_files(), c.mem.canonical()));
            continue;
        }
        for (_, s) in succs {
            if seen.insert(s.canonical()) {
                frontier.push(s);
            }
        }
    }
    out
}

fn agree(prog: &Program, objs: &dyn ObjectSemantics) {
    let compiled = compile(prog);
    let ast = ast_terminals(prog, objs);
    let cfg_fused = cfg_terminals(&compiled, objs, true);
    let cfg_plain = cfg_terminals(&compiled, objs, false);
    assert_eq!(ast, cfg_fused, "{}: AST vs fused CFG outcomes differ", prog.name);
    assert_eq!(ast, cfg_plain, "{}: AST vs unfused CFG outcomes differ", prog.name);
}

#[test]
fn litmus_programs_agree() {
    for l in rc11_litmus::all() {
        if l.prog.objects.is_empty() {
            agree(&l.prog, &NoObjects);
        } else {
            agree(&l.prog, &AbstractObjects);
        }
    }
}

#[test]
fn lock_clients_agree() {
    let (prog, _) = rc11_refine::harness::handoff_client();
    agree(&prog, &AbstractObjects);
}

#[test]
fn inlined_seqlock_agrees() {
    let (abs, l) = rc11_refine::harness::handoff_client();
    let conc = instantiate(&abs, l, &rc11_locks::seqlock());
    agree(&conc, &NoObjects);
}

#[test]
fn control_flow_constructs_agree() {
    // while / if / do-until / nested loops with CAS and FAI.
    let mut p = ProgramBuilder::new("cf");
    let x = p.client_var("x", 0);
    let mut t1 = ThreadBuilder::new();
    let i = t1.reg_init("i", Val::Int(0));
    let r = t1.reg("r");
    p.add_thread(
        t1,
        seq([
            while_do(
                lt(i, 3),
                seq([fai(r, x), assign(i, add(i, 1))]),
            ),
            if_else(eq(r, 2), wr(x, 100), wr(x, 200)),
        ]),
    );
    let mut t2 = ThreadBuilder::new();
    let ok = t2.reg("ok");
    p.add_thread(t2, seq([cas(ok, x, 1, 50)]));
    agree(&p.build(), &NoObjects);
}
