//! The random stream every property test draws from.
//!
//! A property runs as a plain `for case in 0..N` loop. Case `case` gets
//! its own [`Rng`], seeded by [`fuzz::case_seed`], so a failing case
//! index reproduces on its own, and a [`Case`] guard names that index
//! and prints the generated input if the case panics.

use std::fmt::Display;

/// Base seed of the property-test stream.
const SEED: u64 = 0x5eed;

/// A SplitMix64 stream: draw `k` is [`fuzz::case_seed`] of the case's
/// seed at index `k`, which is exactly the SplitMix64 sequence.
pub struct Rng {
    seed: u64,
    draws: usize,
}

impl Rng {
    /// The stream of property case `case`.
    pub fn for_case(case: usize) -> Rng {
        Rng {
            seed: fuzz::case_seed(SEED, case),
            draws: 0,
        }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        fuzz::case_seed(self.seed, self.draws - 1)
    }

    /// A value in `0..n`. The modulo bias is negligible for the small
    /// ranges the generators draw from.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Names a running case: if the case panics, dropping the guard during
/// the unwind prints the case index and the generated input.
pub struct Case<'a> {
    index: usize,
    input: &'a dyn Display,
}

impl<'a> Case<'a> {
    /// Guards case `index`, whose generated input is `input`.
    pub fn new(index: usize, input: &'a dyn Display) -> Case<'a> {
        Case { index, input }
    }
}

impl Drop for Case<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case {}; input:\n{}", self.index, self.input);
        }
    }
}
