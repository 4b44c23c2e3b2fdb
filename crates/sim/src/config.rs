//! Machine configuration: the paper's abstract machine.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::cache::CacheConfig;

/// The out-of-the-box instruction budget: far above any suite kernel,
/// low enough that a generated infinite loop fails one measurement in
/// bounded time instead of hanging a campaign forever.
pub const DEFAULT_MAX_STEPS: u64 = 2_000_000_000;

static MAX_STEPS_OVERRIDE: AtomicU64 = AtomicU64::new(DEFAULT_MAX_STEPS);

/// Sets the process-wide default instruction budget picked up by every
/// subsequently constructed [`MachineConfig`]. Binaries call this once
/// from `--sim-budget N`; explicit `max_steps` fields still win.
pub fn set_default_max_steps(n: u64) {
    MAX_STEPS_OVERRIDE.store(n.max(1), Ordering::Relaxed);
}

/// The current process-wide default instruction budget.
pub fn default_max_steps() -> u64 {
    MAX_STEPS_OVERRIDE.load(Ordering::Relaxed)
}

/// Simulator parameters.
///
/// Defaults reproduce the paper's model (§4): single issue, memory
/// operations cost two cycles, all other instructions — *including CCM
/// accesses* — cost one cycle.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// Cycles per main-memory operation when no cache model is active.
    pub mem_latency: u64,
    /// Cycles per CCM operation (`spill`/`restore`).
    pub ccm_latency: u64,
    /// Size of the compiler-controlled memory in bytes. Accesses beyond
    /// this trap, modeling the fixed-size on-chip resource.
    pub ccm_size: u32,
    /// Main-memory size in bytes (globals at the bottom, stack at the top).
    pub mem_size: usize,
    /// Abort execution after this many instructions (runaway guard).
    pub max_steps: u64,
    /// Optional cache model for main memory (§4.3 ablations). When
    /// present, main-memory latency comes from the cache instead of
    /// `mem_latency`.
    pub cache: Option<CacheConfig>,
    /// Pipelined-load model (the scheduling study): when `Some(d)`, a
    /// main-memory load issues in one cycle and its destination register
    /// becomes ready `d` cycles later; an instruction touching a
    /// not-yet-ready register stalls. Stores post in one cycle. `None`
    /// (default) reproduces the paper's blocking two-cycle memory.
    pub load_delay: Option<u64>,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            mem_latency: 2,
            ccm_latency: 1,
            ccm_size: 1024,
            mem_size: 8 << 20,
            max_steps: default_max_steps(),
            cache: None,
            load_delay: None,
        }
    }
}

impl MachineConfig {
    /// The paper's model with a specific CCM size (512 or 1024 bytes in
    /// the evaluation).
    pub fn with_ccm(ccm_size: u32) -> MachineConfig {
        MachineConfig {
            ccm_size,
            ..MachineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MachineConfig::default();
        assert_eq!(c.mem_latency, 2);
        assert_eq!(c.ccm_latency, 1);
        assert!(c.cache.is_none());
    }
}
