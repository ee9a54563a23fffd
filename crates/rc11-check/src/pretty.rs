//! Rendering configurations and counterexample traces against program
//! metadata (register names, statement labels, location names).

use rc11_core::pretty::StatePrinter;
use rc11_core::Tid;
use rc11_lang::cfg::CfgProgram;
use rc11_lang::machine::Config;
use std::fmt::Write;

/// Render one configuration: per-thread control point and registers, then
/// the memory state.
pub fn render_config(prog: &CfgProgram, cfg: &Config) -> String {
    let mut out = String::new();
    let src = &prog.source;
    for (t, th) in prog.threads.iter().enumerate() {
        let pc = cfg.pc(t);
        let at = th
            .label_at(pc)
            .map(|k| format!("stmt {k}"))
            .unwrap_or_else(|| format!("pc {pc}"));
        let _ = write!(out, "T{}: {at}", t + 1);
        let names = &src.threads[t].reg_names;
        for (i, v) in cfg.locals(t).iter().enumerate() {
            let name = names.get(i).map(String::as_str).unwrap_or("r?");
            let _ = write!(out, "  {name}={v}");
        }
        let _ = writeln!(out);
    }
    let printer = StatePrinter { client_locs: &src.client_locs, lib_locs: &src.lib_locs };
    out.push_str(&printer.render(&cfg.mem));
    out
}

/// Render a counterexample trace: the moving thread and the configuration
/// after each step.
pub fn render_trace(prog: &CfgProgram, trace: &[(Tid, Config)]) -> String {
    let mut out = String::new();
    for (i, (tid, cfg)) in trace.iter().enumerate() {
        let _ = writeln!(out, "── step {} (by {tid}) ──", i + 1);
        out.push_str(&render_config(prog, cfg));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
    use rc11_lang::builder::*;
    use rc11_lang::compile;
    use rc11_lang::machine::NoObjects;

    #[test]
    fn config_rendering_names_everything() {
        let mut p = ProgramBuilder::new("pp");
        let d = p.client_var("data", 0);
        let mut tb = ThreadBuilder::new();
        let r = tb.reg("result");
        p.add_thread(tb, seq([lab(1, wr(d, 5)), lab(2, rd(r, d))]));
        let prog = compile(&p.build());
        let init = Config::initial(&prog);
        let s = render_config(&prog, &init);
        assert!(s.contains("stmt 1"), "{s}");
        assert!(s.contains("result=⊥"));
        assert!(s.contains("data"));
    }

    #[test]
    fn violation_traces_render() {
        let mut p = ProgramBuilder::new("pp2");
        let d = p.client_var("d", 0);
        let tb = ThreadBuilder::new();
        p.add_thread(tb, seq([wr(d, 1), wr(d, 2)]));
        let prog = compile(&p.build());
        let pred = rc11_assert::dsl::pnot(rc11_assert::dsl::pobs(0, d, 2));
        let report = Explorer::new(&prog, &NoObjects).check_invariant(&pred);
        let v = &report.violations[0];
        let s = render_trace(&prog, v.trace.as_ref().unwrap());
        assert!(s.contains("step 1"));
        assert!(s.contains("wr(2)"));
    }
}
