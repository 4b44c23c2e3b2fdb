//! Stress hunt driver: long fuzzing campaigns under squeezed register
//! files, beyond what CI's fixed-seed smoke run covers. Not part of any
//! test path — run it when changing the allocators:
//!
//! ```console
//! $ cargo run --release -p fuzz --example stress -- 512 7
//! ```
//!
//! Arguments are `[cases] [seed]` (defaults 512 and 7). Each failing
//! case prints a minimized parseable-ILOC reproducer suitable for
//! `tests/corpus/`.

use fuzz::{campaign_report, OracleConfig};
use regalloc::AllocConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(512);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(7);
    for (label, alloc) in [
        ("default", AllocConfig::default()),
        ("tiny(8)", AllocConfig::tiny(8)),
        ("tiny(4)", AllocConfig::tiny(4)),
        ("tiny(3)", AllocConfig::tiny(3)),
    ] {
        let cfg = OracleConfig {
            ccm_sizes: vec![16, 64, 256, 1024],
            alloc,
            ..OracleConfig::default()
        };
        let rep = campaign_report(n, seed, exec::available(), &cfg);
        println!("=== alloc {label}: {}", rep.text);
    }
}
