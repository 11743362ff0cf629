//! Seeded open-loop arrival processes for external "datacenter tile"
//! traffic (ROADMAP item 3).
//!
//! A closed-loop core only issues a new request once the previous one
//! resolves, so offered load self-limits; an *open-loop* source keeps
//! injecting at its configured rate no matter how congested the fabric
//! is — which is exactly the regime where admission control and bounded
//! queues earn their keep. Each edge node owns one [`ArrivalStream`],
//! polled once per cycle in a fixed order, so the arrival sequence is a
//! pure function of `(seed, edge index, edge count, process)` — bit-
//! identical across sweep worker counts (`RC_JOBS`).
//!
//! Rates are arrivals **per cycle per edge** and are realised by
//! Bernoulli thinning: at most one arrival per edge per cycle, with the
//! per-cycle probability clamped to `[0, 1]`. That keeps the draw count
//! per cycle fixed (one state draw where the process needs it, one coin,
//! one destination draw only on arrival), which is what makes the stream
//! deterministic however many components the kernel skips.

use crate::WorkloadRng;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Domain separator mixed into the RNG seed so arrival streams never
/// alias the [`crate::CoreTrace`] streams built from the same user seed.
const ARRIVAL_SEED_DOMAIN: u64 = 0x4f50_454e_4c4f_4f50; // "OPENLOOP"

/// The shape of one edge's open-loop arrival process.
///
/// All variants are stationary-seeded: the same configuration and seed
/// reproduce the same arrival stream exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: Bernoulli(`rate`) each cycle, i.e. geometric
    /// inter-arrival times — the discrete-time Poisson stand-in.
    Poisson {
        /// Mean arrivals per cycle per edge.
        rate: f64,
    },
    /// Two-state on/off (Markov-modulated) arrivals: bursts at `rate_on`
    /// for a uniform `[1, 2*mean_on]`-cycle dwell, then quiet at
    /// `rate_off` for a uniform `[1, 2*mean_off]`-cycle dwell.
    Bursty {
        /// Arrival rate while the source is bursting.
        rate_on: f64,
        /// Arrival rate between bursts (often 0).
        rate_off: f64,
        /// Mean burst duration in cycles.
        mean_on: u64,
        /// Mean quiet duration in cycles.
        mean_off: u64,
    },
    /// A deterministic triangular ramp with period `period`: the rate
    /// climbs linearly from 0 to `peak_rate` over the first half-period
    /// and back down over the second — a compressed diurnal load curve.
    Diurnal {
        /// Rate at the top of the ramp.
        peak_rate: f64,
        /// Full ramp period in cycles.
        period: u64,
    },
}

/// One external arrival produced by [`ArrivalStream::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExternalArrival {
    /// Uniform draw in `[0, servers)` selecting the destination tile
    /// (the caller maps it onto its server list).
    pub dst_index: usize,
    /// Per-edge arrival sequence number, for building collision-free
    /// external block addresses.
    pub seq: u64,
}

/// On/off modulation state for [`ArrivalProcess::Bursty`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BurstState {
    on: bool,
    /// Cycles left in the current dwell.
    remaining: u64,
}

/// A seeded per-edge arrival source. Poll it exactly once per cycle.
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    process: ArrivalProcess,
    state: ArrivalState,
}

/// An [`ArrivalStream`]'s state (DESIGN.md §13).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArrivalState {
    rng: WorkloadRng,
    /// Burst modulation, for bursty processes.
    burst: Option<BurstState>,
    /// Next arrival sequence number.
    seq: u64,
}

impl ArrivalStream {
    /// A stream for edge `edge_index` of `edge_count`, derived from the
    /// run seed. Distinct edges get independent ChaCha streams; the same
    /// triple reproduces the same stream bit for bit.
    pub fn new(process: ArrivalProcess, seed: u64, edge_index: usize, edge_count: usize) -> Self {
        let mut seed_bytes = [0u8; 32];
        seed_bytes[..8].copy_from_slice(&seed.to_le_bytes());
        seed_bytes[8..16].copy_from_slice(&(edge_index as u64).to_le_bytes());
        seed_bytes[16..24].copy_from_slice(&(edge_count as u64).to_le_bytes());
        seed_bytes[24..32].copy_from_slice(&ARRIVAL_SEED_DOMAIN.to_le_bytes());
        let mut rng = ChaCha8Rng::from_seed(seed_bytes);
        let burst = match process {
            ArrivalProcess::Bursty {
                mean_on, mean_off, ..
            } => {
                // Start in a random phase so edges don't burst in lockstep.
                let on = rng.gen_bool(0.5);
                let mean = if on { mean_on } else { mean_off };
                Some(BurstState {
                    on,
                    remaining: rng.gen_range(1..=2 * mean.max(1)),
                })
            }
            _ => None,
        };
        let rng = WorkloadRng(rng);
        Self {
            process,
            state: ArrivalState { rng, burst, seq: 0 },
        }
    }

    /// The instantaneous per-cycle arrival probability at `now`,
    /// advancing any modulation state. Clamped to `[0, 1]`.
    fn rate_at(&mut self, now: u64) -> f64 {
        let raw = match self.process {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::Bursty {
                rate_on,
                rate_off,
                mean_on,
                mean_off,
            } => {
                let state = self.state.burst.as_mut().expect("bursty stream has state");
                if state.remaining == 0 {
                    state.on = !state.on;
                    let mean = if state.on { mean_on } else { mean_off };
                    state.remaining = self.state.rng.0.gen_range(1..=2 * mean.max(1));
                }
                state.remaining -= 1;
                if state.on {
                    rate_on
                } else {
                    rate_off
                }
            }
            ArrivalProcess::Diurnal { peak_rate, period } => {
                let period = period.max(2);
                let phase = (now % period) as f64 / period as f64;
                peak_rate * (1.0 - (2.0 * phase - 1.0).abs())
            }
        };
        raw.clamp(0.0, 1.0)
    }

    /// Polls the stream for cycle `now`. Returns the arrival (if any)
    /// with a destination drawn uniformly from `[0, servers)`.
    ///
    /// Must be called once per cycle in cycle order — the RNG draw
    /// sequence *is* the process definition.
    pub fn poll(&mut self, now: u64, servers: usize) -> Option<ExternalArrival> {
        let p = self.rate_at(now);
        if p <= 0.0 || !self.state.rng.0.gen_bool(p) {
            return None;
        }
        let dst_index = if servers > 1 {
            self.state.rng.0.gen_range(0..servers)
        } else {
            0
        };
        let seq = self.state.seq;
        self.state.seq += 1;
        Some(ExternalArrival { dst_index, seq })
    }

    /// Total arrivals produced so far.
    pub fn produced(&self) -> u64 {
        self.state.seq
    }
}

rcsim_core::stateful!(ArrivalStream => ArrivalState);

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut s: ArrivalStream, cycles: u64) -> Vec<(u64, ExternalArrival)> {
        (0..cycles)
            .filter_map(|t| s.poll(t, 12).map(|a| (t, a)))
            .collect()
    }

    #[test]
    fn same_seed_same_stream() {
        let p = ArrivalProcess::Bursty {
            rate_on: 0.4,
            rate_off: 0.01,
            mean_on: 50,
            mean_off: 200,
        };
        let a = drain(ArrivalStream::new(p, 7, 2, 4), 5_000);
        let b = drain(ArrivalStream::new(p, 7, 2, 4), 5_000);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_edges_decorrelate() {
        let p = ArrivalProcess::Poisson { rate: 0.2 };
        let a = drain(ArrivalStream::new(p, 7, 0, 4), 2_000);
        let b = drain(ArrivalStream::new(p, 7, 1, 4), 2_000);
        assert_ne!(a, b);
    }

    #[test]
    fn poisson_rate_is_roughly_honoured() {
        let p = ArrivalProcess::Poisson { rate: 0.1 };
        let n = drain(ArrivalStream::new(p, 1, 0, 1), 50_000).len() as f64;
        let expect = 0.1 * 50_000.0;
        assert!((n - expect).abs() < 0.1 * expect, "got {n}, want ~{expect}");
    }

    #[test]
    fn diurnal_ramp_peaks_mid_period() {
        let p = ArrivalProcess::Diurnal {
            peak_rate: 0.5,
            period: 10_000,
        };
        let arrivals = drain(ArrivalStream::new(p, 3, 0, 1), 10_000);
        let mid = arrivals
            .iter()
            .filter(|(t, _)| (2_500..7_500).contains(t))
            .count();
        let tails = arrivals.len() - mid;
        assert!(mid > 2 * tails, "mid {mid} vs tails {tails}");
    }

    #[test]
    fn seq_numbers_are_dense_and_ordered() {
        let p = ArrivalProcess::Poisson { rate: 0.5 };
        let arrivals = drain(ArrivalStream::new(p, 9, 1, 2), 1_000);
        for (i, (_, a)) in arrivals.iter().enumerate() {
            assert_eq!(a.seq, i as u64);
            assert!(a.dst_index < 12);
        }
    }
}
