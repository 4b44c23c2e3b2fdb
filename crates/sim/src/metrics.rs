//! Execution counters.

use crate::cache::CacheStats;

/// Dynamic execution metrics, the quantities the paper's tables report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Total cycles executed.
    pub cycles: u64,
    /// Cycles spent in memory operations — main-memory accesses *plus*
    /// CCM accesses (the parenthesized numbers in Tables 2 and 3).
    pub mem_op_cycles: u64,
    /// Instructions executed.
    pub instrs: u64,
    /// Main-memory loads/stores executed.
    pub main_mem_ops: u64,
    /// CCM spills/restores executed.
    pub ccm_ops: u64,
    /// Executions of allocator-tagged spill stores.
    pub spill_stores: u64,
    /// Executions of allocator-tagged spill restores (reloads).
    pub spill_restores: u64,
    /// Call instructions executed.
    pub calls: u64,
    /// Deepest call-stack depth reached.
    pub max_depth: u64,
    /// Cycles lost waiting for in-flight loads (pipelined model only).
    pub stall_cycles: u64,
    /// Cache statistics (all zero when no cache model is configured).
    pub cache: CacheStats,
}
