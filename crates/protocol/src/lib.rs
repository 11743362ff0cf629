//! Directory-based MESI coherence over a distributed, inclusive L2
//! (the paper's Table 2/Table 3 memory system).
//!
//! The crate models, cycle by cycle:
//!
//! * private L1 caches (32 KB, 4-way, 2-cycle hit, pseudo-LRU) with a
//!   write-back buffer that keeps evicted lines alive until the L2
//!   acknowledges them;
//! * shared L2 banks (1 MB/bank, 16-way, 7-cycle hit, inclusive) holding
//!   the directory (owner + sharer set per line), per-line busy states and
//!   request queues — the *line-busy-until-`L1_DATA_ACK`* behaviour that
//!   the NoAck optimisation of §4.6 removes;
//! * memory controllers with the paper's 160-cycle latency.
//!
//! Every message flow of Table 3 is produced: plain L1 miss
//! (request → `L2_Replies` → `L1_DATA_ACK`), dirty-owner forwarding
//! (request → forward → `L1_TO_L1` → `L1_DATA_ACK`, with the now-useless
//! circuit undone), invalidations (`L1_INV_ACK`), L1 write-backs
//! (`L2_WB_ACK`), and L2 miss/replacement traffic to memory (`MEMORY`).
//!
//! Networking is abstracted behind the [`Port`] trait so the protocol can
//! be unit-tested with an in-memory loopback and wired to the
//! cycle-accurate NoC by `rcsim-system`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod l1;
mod l2;
mod mem;
mod msg;
pub mod plru;

pub use cache::{CacheArray, CacheConfig};
pub use config::ProtocolConfig;
pub use l1::{Access, L1Cache, L1CacheState, L1Stats, MissDone};
pub use l2::{L2Bank, L2BankState, L2Stats};
pub use mem::{MemStats, MemoryController, MemoryState};
pub use msg::{Msg, Port, ReqKind};
