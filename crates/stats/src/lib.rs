//! Summary statistics, histograms and counters for the Reactive Circuits
//! simulator.
//!
//! The evaluation methodology of the paper reports means with standard
//! errors and 95% confidence intervals across applications (its §5.5 cites
//! Jain's *The Art of Computer Systems Performance Analysis*). This crate
//! provides the small, dependency-free building blocks used by every other
//! crate in the workspace to produce those numbers:
//!
//! * [`Accumulator`] — running count/mean/variance (Welford), standard
//!   error and CI95 half-width;
//! * [`Histogram`] — fixed-width binned latency distributions with
//!   percentile queries;
//! * [`LatencyStat`] — an accumulator and a histogram fed by one `record`
//!   call, so mean and p50/p99 can never drift apart;
//! * [`geometric_mean`] — the mean used for speedup aggregation.
//!
//! # Examples
//!
//! ```
//! use rcsim_stats::Accumulator;
//!
//! let mut lat = Accumulator::new();
//! for x in [10.0, 12.0, 11.0, 13.0] {
//!     lat.add(x);
//! }
//! assert_eq!(lat.count(), 4);
//! assert!((lat.mean() - 11.5).abs() < 1e-12);
//! assert!(lat.std_err() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accumulator;
mod histogram;
mod latency;
mod means;

pub use accumulator::Accumulator;
pub use histogram::Histogram;
pub use latency::LatencyStat;
pub use means::geometric_mean;
