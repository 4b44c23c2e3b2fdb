//! Allocation golden: the Chaitin-Briggs allocator's decisions, pinned.
//!
//! One FNV-1a digest per (unit, configuration), taken over the allocated
//! module's text and its `AllocStats`. The units are the 64 suite
//! kernels and the fuzz modules `fuzz::case_seed(1, 0..128)`, each
//! allocated under the default configuration, `tiny(3)`, `tiny(5)` and
//! the default with rematerialization on. Each kernel's default
//! allocation also gets one digest per CCM derivation the tables print:
//! `ccm::promote_allocated` for the three CCM methods at 512 and 1024 B
//! (module text plus degradations) and `ccm::compact_module` (module
//! text plus compaction stats). Each fuzz module's default allocation
//! gets one per CCM method at the oracle's sizes, 64, 256 and 1024 B,
//! by the same rule. The tables and figures only pin
//! aggregates; this test pins every coloring, spill choice, coalesce and
//! CCM or compacted offset, so a change that only makes the allocator or
//! the placement faster must leave it passing as recorded.
//!
//! Re-record only for an intended change of decisions:
//! `GOLDEN_UPDATE=1 cargo test --release --test alloc_golden`.

use ccm::Variant;
use iloc::Module;
use regalloc::{AllocConfig, AllocStats};

const GOLDEN: &str = "tests/alloc_golden.txt";

/// FNV-1a over `bytes`.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// FNV-1a over the allocated module's text and the decision counters of
/// its `AllocStats`.
fn digest(m: &Module, s: &AllocStats) -> u64 {
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
    fnv(m.to_string().bytes().chain(stats))
}

/// One `unit ccm:DERIVATION digest` line per CCM method at each of
/// `sizes` derived from the default allocation `allocated`.
fn ccm_lines(name: &str, allocated: &Module, sizes: &[u32]) -> String {
    let mut out = String::new();
    for v in [
        Variant::PostPass,
        Variant::PostPassCallGraph,
        Variant::Integrated,
    ] {
        for &size in sizes {
            let mut m = allocated.clone();
            let degraded = ccm::promote_allocated(&mut m, v, size);
            let reasons = degraded
                .iter()
                .flat_map(|d| d.function.bytes().chain(d.reason.bytes()));
            let h = fnv(m.to_string().bytes().chain(reasons));
            out += &format!("{name} ccm:{}@{size} {h:016x}\n", v.short());
        }
    }
    out
}

/// [`ccm_lines`] at the tables' sizes, then one `unit ccm:compact
/// digest` line for the compaction of a kernel's default allocation.
fn kernel_ccm_lines(name: &str, allocated: &Module) -> String {
    let mut out = ccm_lines(name, allocated, &[512, 1024]);
    let mut m = allocated.clone();
    let stats = ccm::compact_module(&mut m);
    let stats = stats.iter().flat_map(|(f, s)| {
        f.bytes()
            .chain(s.before.to_le_bytes())
            .chain(s.after.to_le_bytes())
    });
    let h = fnv(m.to_string().bytes().chain(stats));
    out += &format!("{name} ccm:compact {h:016x}\n");
    out
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

/// One `unit config digest` line per allocation, then a unit's CCM
/// derivation lines, in unit order.
fn digest_lines() -> String {
    let configs = [
        ("default", AllocConfig::default()),
        ("tiny3", AllocConfig::tiny(3)),
        ("tiny5", AllocConfig::tiny(5)),
        (
            "remat",
            AllocConfig {
                rematerialize: true,
                ..AllocConfig::default()
            },
        ),
    ];
    let units = units();
    let per_unit = exec::par_map_contained(
        2,
        &units,
        |(name, _)| name.clone(),
        |(name, m)| {
            let mut out = String::new();
            let mut default = None;
            for (label, cfg) in &configs {
                let mut mm = m.clone();
                let stats = regalloc::allocate_module(&mut mm, cfg);
                out += &format!("{name} {label} {:016x}\n", digest(&mm, &stats));
                default.get_or_insert(mm);
            }
            let default = default.expect("the default configuration");
            if name.starts_with("kernel:") {
                out += &kernel_ccm_lines(name, &default);
            } else {
                out += &ccm_lines(name, &default, &[64, 256, 1024]);
            }
            out
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
    assert_eq!(got.lines().count(), (64 + 128) * 4 + 64 * 7 + 128 * 9);
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
