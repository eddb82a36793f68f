//! Seeded mutation fuzzing of the two script languages.
//!
//! Each case starts from a committed script (`scripts/motivation.fv`, the
//! `.chaos` plans), splits it into tokens (a line break is a token too),
//! and applies one to four [`SimRng`]-chosen mutations: delete a token,
//! swap two, duplicate one, or insert a boundary token (an integer one past
//! a field's range, a handle without a minor, a rate that overflows `f64`,
//! a zero duration, ...). `FaultPlan::parse`, and `Policy::parse` followed
//! by `Policy::compile`, must return `Ok` or a typed error for every case;
//! a panic fails the test and prints the input that caused it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use flowvalve::frontend::Policy;
use flowvalve::tree::TreeParams;
use fv_chaos::FaultPlan;
use sim_core::rng::SimRng;

/// Mutated inputs per language.
const CASES: u64 = 100_000;

/// Tokens at or just past the edge of what some field accepts, plus
/// keywords of both languages, so mutations also build valid-looking
/// commands out of place.
const BOUNDARY: &[&str] = &[
    "65536",
    "65535",
    "256",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "0",
    "1:",
    ":",
    "1:0",
    "1:65536",
    "1e400gbit",
    "1e19gbit",
    "0gbit",
    "-1gbit",
    "nangbit",
    "0ms",
    "18446744073709551615ns",
    "18446744073709551616ns",
    "18446744073709551s",
    "0.0.0.0/33",
    "255.255.255.255/0",
    "#",
    "fv",
    "add",
    "default",
    "root",
    "borrow",
    "1:1,1:",
    "chaos",
    "seed",
    "fault",
    "at",
    "for",
    "every",
    "reconfig",
    "clock_skew",
    "skew",
];

/// The script's tokens, comment lines dropped, with `"\n"` between lines.
fn tokens(script: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for line in script.lines().filter(|l| !l.trim_start().starts_with('#')) {
        out.extend(line.split_whitespace());
        out.push("\n");
    }
    out
}

/// One mutated copy of `seed`.
fn mutate(rng: &mut SimRng, seed: &[&str]) -> String {
    let mut toks = seed.to_vec();
    for _ in 0..rng.range(1, 5) {
        let at = rng.index(toks.len().max(1));
        match rng.range(0, 4) {
            0 if !toks.is_empty() => {
                toks.remove(at);
            }
            1 if !toks.is_empty() => {
                let other = rng.index(toks.len());
                toks.swap(at, other);
            }
            2 if !toks.is_empty() => toks.insert(at, toks[at]),
            _ => toks.insert(at.min(toks.len()), BOUNDARY[rng.index(BOUNDARY.len())]),
        }
    }
    let mut out = String::new();
    for tok in toks {
        if tok != "\n" && !out.is_empty() && !out.ends_with('\n') {
            out.push(' ');
        }
        out.push_str(tok);
    }
    out
}

/// Runs `CASES` mutations of `seeds` through `check`, failing on the first
/// that panics. Returns how many inputs `check` accepted.
fn fuzz(rng_seed: u64, seeds: &[&str], check: impl Fn(&str) -> bool) -> u64 {
    let seeds: Vec<Vec<&str>> = seeds.iter().map(|s| tokens(s)).collect();
    let mut rng = SimRng::seed(rng_seed);
    let mut accepted = 0;
    for case in 0..CASES {
        let seed = &seeds[rng.index(seeds.len())];
        let input = mutate(&mut rng, seed);
        match catch_unwind(AssertUnwindSafe(|| check(&input))) {
            Ok(ok) => accepted += u64::from(ok),
            Err(_) => panic!("case {case} panicked on input:\n{input}"),
        }
    }
    accepted
}

#[test]
fn mutated_fault_plans_parse_or_return_a_typed_error() {
    let seeds = [
        include_str!("../scripts/demo.chaos"),
        include_str!("../scripts/tm_drop.chaos"),
    ];
    let accepted = fuzz(0xc4a0_5eed, &seeds, |plan| FaultPlan::parse(plan).is_ok());
    // Both verdicts are reached, so the mutations neither only break the
    // plans nor only leave them valid.
    assert!(
        accepted > 0 && accepted < CASES,
        "{accepted} of {CASES} parsed"
    );
}

#[test]
fn mutated_policies_parse_and_compile_or_return_a_typed_error() {
    let seeds = [include_str!("../scripts/motivation.fv")];
    let accepted = fuzz(0xf10a_5eed, &seeds, |script| {
        Policy::parse(script).is_ok_and(|p| p.compile(TreeParams::default()).is_ok())
    });
    assert!(
        accepted > 0 && accepted < CASES,
        "{accepted} of {CASES} compiled"
    );
}
