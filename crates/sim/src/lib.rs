//! # mpgraph-sim
//!
//! ChampSim-class trace-driven simulator used to evaluate prefetchers: four
//! cores with private L1D/L2 caches, a shared last-level cache where the
//! prefetcher under test is attached, and a banked DRAM model — all with the
//! parameters of the paper's Table 3.
//!
//! The engine replays the interleaved multi-core traces produced by
//! `mpgraph-frameworks`, models memory-level parallelism with a bounded
//! outstanding-miss window, and reports IPC, prefetch accuracy, and prefetch
//! coverage — the three metrics of Figures 10-12.
//!
//! ```
//! use mpgraph_sim::{simulate, NullPrefetcher, SimConfig};
//! use mpgraph_frameworks::MemRecord;
//!
//! let trace: Vec<MemRecord> = (0..1000)
//!     .map(|i| MemRecord {
//!         pc: 0x400000, vaddr: 0x10_0000_0000 + i * 64,
//!         core: (i % 4) as u8, is_write: false, phase: 0, gap: 3, dep: false,
//!     })
//!     .collect();
//! let result = simulate(&trace, &mut NullPrefetcher, &SimConfig::default());
//! assert!(result.ipc() > 0.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod cache;
pub mod dram;
pub mod engine;
pub mod fault;
pub mod filter;
pub mod obs;
pub mod prefetch;
pub mod trace_event;

pub use cache::{Cache, CacheStats, Lookup};
pub use dram::{Dram, DramConfig, DramStats};
pub use engine::{
    simulate, simulate_observed, simulate_with_faults, SimConfig, SimResult, SimSession,
};
pub use fault::{FaultConfig, FaultInjector, FaultKind, FaultStats};
pub use filter::{llc_filter, llc_filter_indexed, private_step, PrivateOutcome};
pub use obs::{DropReason, PrefetchObserver};
pub use prefetch::{
    LlcAccess, NullPrefetcher, PrefetchLane, PrefetchTag, Prefetcher, BLOCK_BITS, BLOCK_OFFSET_MASK,
};
pub use trace_event::TraceEvent;
