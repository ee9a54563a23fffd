//! The known-answer gate behind `ok_frac`: every answer the program
//! gives is compared with one known independently of the run.
//!
//! * corpus files carry their exact outcome set in an `expected` block;
//! * the deep ticket-lock counter must produce every permutation of
//!   `(0, …, n-1)` — each thread reads a distinct counter value under
//!   mutual exclusion — and no deadlock. State counts are deliberately
//!   not checked: reductions legitimately change them;
//! * fresh daemon programs must match a sequential reference explored
//!   in-process before the timed window.

use rc11::core::Val;
use std::collections::BTreeSet;

/// Tallies of checked answers and the descriptions of wrong ones.
#[derive(Debug, Default)]
pub struct Gate {
    /// Answers compared.
    pub checked: u64,
    /// Requests that errored or were refused (no answer to compare).
    pub errors: u64,
    /// Wrong answers, described.
    pub wrong: Vec<String>,
}

impl Gate {
    /// Compare one answer. `what` names the request in a mismatch.
    pub fn expect<T: Ord>(
        &mut self,
        what: &str,
        observed: &BTreeSet<T>,
        deadlocks: usize,
        complete: bool,
        expected: &BTreeSet<T>,
    ) {
        self.checked += 1;
        if observed != expected || deadlocks != 0 || !complete {
            self.wrong.push(format!(
                "{what}: observed {} outcomes (expected {}), {deadlocks} deadlocks, complete={complete}",
                observed.len(),
                expected.len()
            ));
        }
    }

    /// Record a request that produced no answer (an error or `busy`).
    pub fn error(&mut self, what: &str, message: &str) {
        self.checked += 1;
        self.errors += 1;
        eprintln!("[rc11-bench] {what}: {message}");
    }

    /// Record an answer that failed a check that is not a set comparison.
    pub fn mismatch(&mut self, what: String) {
        self.checked += 1;
        self.wrong.push(what);
    }

    /// Requests that failed: errored, refused or wrong.
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong.len() as u64
    }
}

/// The known answer for the `n`-thread lock-protected counter: all `n!`
/// orders in which the threads can take the lock, as the tuple of values
/// each thread read.
pub fn counter_outcomes(n: usize) -> BTreeSet<Vec<Val>> {
    fn permute(prefix: &mut Vec<i64>, rest: &mut Vec<i64>, out: &mut BTreeSet<Vec<Val>>) {
        if rest.is_empty() {
            out.insert(prefix.iter().map(|&v| Val::Int(v)).collect());
            return;
        }
        for i in 0..rest.len() {
            let v = rest.remove(i);
            prefix.push(v);
            permute(prefix, rest, out);
            prefix.pop();
            rest.insert(i, v);
        }
    }
    let mut out = BTreeSet::new();
    permute(&mut Vec::new(), &mut (0..n as i64).collect(), &mut out);
    out
}

/// A deliberately wrong answer key, for proving the gate fires: the
/// expected set with one outcome removed.
pub fn corrupt(expected: &BTreeSet<Vec<Val>>) -> BTreeSet<Vec<Val>> {
    let mut bad = expected.clone();
    match bad.iter().next().cloned() {
        Some(first) => {
            bad.remove(&first);
        }
        None => {
            bad.insert(vec![Val::Int(-1)]);
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter5_known_answer_is_every_permutation() {
        let set = counter_outcomes(5);
        assert_eq!(set.len(), 120);
        for tuple in &set {
            let mut vals: Vec<i64> = tuple.iter().map(|v| v.as_int().unwrap()).collect();
            vals.sort_unstable();
            assert_eq!(vals, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn gate_accepts_the_known_answer_and_rejects_a_wrong_one() {
        let expected = counter_outcomes(3);
        let mut gate = Gate::default();
        gate.expect("counter3", &expected, 0, true, &expected);
        assert!(gate.wrong.is_empty());
        gate.expect("counter3", &corrupt(&expected), 0, true, &expected);
        gate.expect("counter3", &expected, 1, true, &expected);
        gate.expect("counter3", &expected, 0, false, &expected);
        assert_eq!(gate.wrong.len(), 3);
        assert_eq!(gate.failed(), 3);
        assert_eq!(gate.checked, 4);
    }
}
