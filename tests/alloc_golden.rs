//! Allocation golden: the Chaitin-Briggs allocator's decisions, pinned.
//!
//! One FNV-1a digest per (unit, configuration), taken over the allocated
//! module's text and its `AllocStats`. The units are the 64 suite
//! kernels and the fuzz modules `fuzz::case_seed(1, 0..128)`, each
//! allocated under the default configuration, `tiny(3)` and `tiny(5)`.
//! The tables and figures only pin aggregates; this test pins every
//! coloring, spill choice and coalesce, so a change that only makes the
//! allocator faster must leave it passing as recorded.
//!
//! Re-record only for an intended change of decisions:
//! `GOLDEN_UPDATE=1 cargo test --release --test alloc_golden`.

use iloc::Module;
use regalloc::{AllocConfig, AllocStats};

const GOLDEN: &str = "tests/alloc_golden.txt";

/// FNV-1a over the allocated module's text and the decision counters of
/// its `AllocStats`.
fn digest(m: &Module, s: &AllocStats) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let counters = [
        s.spilled,
        s.coalesced,
        s.rounds,
        s.rematerialized,
        s.graph_builds,
    ];
    let stats = counters
        .iter()
        .flatten()
        .flat_map(|&x| (x as u64).to_le_bytes());
    for b in m.to_string().bytes().chain(stats) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The units: suite kernels, then fuzz modules.
fn units() -> Vec<(String, Module)> {
    let mut out: Vec<(String, Module)> = suite::kernels()
        .iter()
        .map(|k| (format!("kernel:{}", k.name), suite::build_optimized(k)))
        .collect();
    out.extend((0..128).map(|i| (format!("fuzz:{i}"), fuzz::gen_module(fuzz::case_seed(1, i)))));
    out
}

/// One `unit config digest` line per allocation, in unit order.
fn digest_lines() -> String {
    let configs = [
        ("default", AllocConfig::default()),
        ("tiny3", AllocConfig::tiny(3)),
        ("tiny5", AllocConfig::tiny(5)),
    ];
    let units = units();
    let per_unit = exec::par_map_contained(
        2,
        &units,
        |(name, _)| name.clone(),
        |(name, m)| {
            configs
                .iter()
                .map(|(label, cfg)| {
                    let mut mm = m.clone();
                    let stats = regalloc::allocate_module(&mut mm, cfg);
                    format!("{name} {label} {:016x}\n", digest(&mm, &stats))
                })
                .collect::<String>()
        },
    );
    per_unit
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e:?}")))
        .collect()
}

#[test]
fn allocations_match_the_recorded_digests() {
    let got = digest_lines();
    assert_eq!(got.lines().count(), (64 + 128) * 3);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(GOLDEN, &got).expect("write the golden file");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("read the golden file");
    let differing: Vec<&str> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, _)| g)
        .collect();
    assert!(
        differing.is_empty() && got.lines().count() == want.lines().count(),
        "{} of {} allocations differ from {GOLDEN}; first: {:?}",
        differing.len(),
        got.lines().count(),
        differing.first()
    );
}
