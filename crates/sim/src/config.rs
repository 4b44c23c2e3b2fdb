//! Machine configuration: the paper's abstract machine.

use crate::cache::CacheConfig;

/// The out-of-the-box instruction budget: far above any suite kernel,
/// low enough that a generated infinite loop fails one measurement in
/// bounded time instead of hanging a campaign forever.
pub const DEFAULT_MAX_STEPS: u64 = 2_000_000_000;

/// Cycles per main-memory operation when no cache model is active: the
/// paper's two-cycle memory (§4).
pub const MEM_LATENCY: u64 = 2;
/// Cycles per CCM operation (`spill`/`restore`), the same as any other
/// non-memory instruction.
pub const CCM_LATENCY: u64 = 1;
/// Main-memory size in bytes (globals at the bottom, stack at the top).
pub const MEM_SIZE: usize = 8 << 20;

/// Simulator parameters.
///
/// Defaults reproduce the paper's model (§4): single issue, memory
/// operations cost [`MEM_LATENCY`] cycles, all other instructions —
/// *including CCM accesses* — cost one cycle.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// Size of the compiler-controlled memory in bytes. Accesses beyond
    /// this trap, modeling the fixed-size on-chip resource.
    pub ccm_size: u32,
    /// Abort execution after this many instructions (runaway guard).
    pub max_steps: u64,
    /// Optional cache model for main memory (§4.3 ablations). When
    /// present, main-memory latency comes from the cache instead of
    /// [`MEM_LATENCY`].
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
            ccm_size: 1024,
            max_steps: DEFAULT_MAX_STEPS,
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
        assert_eq!((MEM_LATENCY, CCM_LATENCY), (2, 1));
        assert!(c.cache.is_none() && c.load_delay.is_none());
    }
}
