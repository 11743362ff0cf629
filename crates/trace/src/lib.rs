//! `rcsim-trace`: zero-cost event tracing and telemetry for the reactive
//! circuits simulator.
//!
//! The crate is a small, dependency-light layer the rest of the workspace
//! instruments against:
//!
//! - [`TraceSink`] — the handle components emit into. The default
//!   [`TraceSink::Disabled`] makes every `emit` one enum-tag branch whose
//!   event constructor never runs.
//! - [`TraceEvent`] / [`EventKind`] — cycle-stamped events covering the
//!   NI packet lifecycle, router pipeline stages, circuit-table
//!   transitions, cache activity, and periodic occupancy samples.
//! - [`RingLog`] — the bounded ring the sink writes into; the newest N
//!   events survive and overwrites are counted.
//! - [`LatencyBreakdown`] — a post-pass matching packet and circuit
//!   lifecycles back together into per-phase latency histograms
//!   (queueing, circuit setup, circuit/packet/degraded transit).
//! - [`chrome_trace`] — export to the Chrome trace-event JSON format that
//!   Perfetto opens directly.
//! - [`BenchSummary`] — the machine-readable `BENCH_<name>.json` document
//!   every bench bin writes, with a schema validator for CI.
//!
//! The crate sits *below* the simulator crates (its only workspace
//! dependency is `rcsim-stats`), so NoC, protocol and system layers can
//! all emit into one shared sink.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench;
mod breakdown;
mod chrome;
mod event;
mod ring;
mod sink;

pub use bench::{BenchRow, BenchSummary, ClaimOutcome, BENCH_SCHEMA_VERSION};
pub use breakdown::LatencyBreakdown;
pub use chrome::{chrome_trace, chrome_trace_json};
pub use event::{ClassLabel, EventKind, TraceEvent};
pub use ring::RingLog;
pub use sink::TraceSink;
