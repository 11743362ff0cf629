//! The canonical benchmark of the Reactive Circuits simulator: four
//! workloads, host-speed and simulated end-to-end metrics, and a per-layer
//! cost model measured from outside through the crates' public functions.
//! See `README.md` beside this crate and `BENCHMARK.json` at the repo
//! root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod expected;
pub mod host;
pub mod layers;
pub mod run;
pub mod span;
pub mod stats;
pub mod workloads;
