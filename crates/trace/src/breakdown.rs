//! Post-pass: reconstruct per-message latency breakdowns from the raw
//! event stream.
//!
//! The sink records a flat, time-ordered event log; this module replays it
//! and matches packet lifecycles (`NiEnqueue → NiInject → NiEject`) and
//! circuit lifecycles (`CircuitReserve → CircuitConfirm`) back together,
//! splitting end-to-end latency into the phases the paper's Figure 7
//! discussion cares about: time queued at the NI, time spent building the
//! circuit, time in the network — separated by whether the message rode a
//! circuit, took the packet-switched pipeline, or fell back after a fault.

use crate::event::{EventKind, TraceEvent};
use rcsim_stats::LatencyStat;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Histogram geometry for every phase statistic: 5-cycle bins to 1000
/// cycles, matching the NoC's delivery histograms but with more headroom
/// for queueing outliers.
fn phase_stat() -> LatencyStat {
    LatencyStat::new(5.0, 200)
}

/// Per-phase latency statistics reconstructed from a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Enqueue → head injection, all delivered packets.
    pub queueing: LatencyStat,
    /// First reservation write → origin registration, per circuit.
    pub circuit_setup: LatencyStat,
    /// Injection → delivery for packets that rode their own circuit.
    pub transit_circuit: LatencyStat,
    /// Injection → delivery for plain packet-switched packets.
    pub transit_packet: LatencyStat,
    /// Injection → delivery for fault-degraded packets (retransmitted at
    /// least once); injection is the *first* attempt, so retransmission
    /// backoff is included — that is the degradation being measured.
    pub transit_degraded: LatencyStat,
    /// Packets delivered within the trace window.
    pub delivered: u64,
    /// Packets abandoned after exhausting retries.
    pub dropped: u64,
    /// Enqueued packets with no terminal event in the window (still in
    /// flight, or their terminal event was overwritten in the ring).
    pub unresolved: u64,
}

impl Default for LatencyBreakdown {
    fn default() -> Self {
        Self {
            queueing: phase_stat(),
            circuit_setup: phase_stat(),
            transit_circuit: phase_stat(),
            transit_packet: phase_stat(),
            transit_degraded: phase_stat(),
            delivered: 0,
            dropped: 0,
            unresolved: 0,
        }
    }
}

impl LatencyBreakdown {
    /// Replays `events` (in emission order) and accumulates every phase.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut out = LatencyBreakdown::default();
        // packet → (enqueue cycle, first-injection cycle)
        let mut open: HashMap<u64, (Option<u64>, Option<u64>)> = HashMap::new();
        // circuit key → first reservation cycle
        let mut reserving: HashMap<(u16, u64), u64> = HashMap::new();
        for e in events {
            match e.kind {
                EventKind::NiEnqueue { packet, .. } => {
                    open.entry(packet).or_insert((None, None)).0 = Some(e.cycle);
                }
                EventKind::NiInject { packet, .. } => {
                    let slot = &mut open.entry(packet).or_insert((None, None)).1;
                    // Keep the first injection: retransmissions re-inject
                    // the same packet id.
                    if slot.is_none() {
                        *slot = Some(e.cycle);
                    }
                }
                EventKind::NiEject {
                    packet,
                    rode_circuit,
                    retries,
                    ..
                } => {
                    out.delivered += 1;
                    let Some((enq, inj)) = open.remove(&packet) else {
                        continue;
                    };
                    if let (Some(enq), Some(inj)) = (enq, inj) {
                        out.queueing.record((inj - enq) as f64);
                    }
                    // Tile-local deliveries have no injection event; their
                    // transit is the enqueue→eject gap.
                    let start = inj.or(enq);
                    if let Some(start) = start {
                        let transit = (e.cycle - start) as f64;
                        if retries > 0 {
                            out.transit_degraded.record(transit);
                        } else if rode_circuit {
                            out.transit_circuit.record(transit);
                        } else {
                            out.transit_packet.record(transit);
                        }
                    }
                }
                EventKind::PacketDropped { packet, .. } => {
                    out.dropped += 1;
                    open.remove(&packet);
                }
                EventKind::CircuitReserve {
                    requestor, block, ..
                } => {
                    reserving.entry((requestor, block)).or_insert(e.cycle);
                }
                EventKind::CircuitConfirm {
                    requestor, block, ..
                } => {
                    if let Some(start) = reserving.remove(&(requestor, block)) {
                        out.circuit_setup.record((e.cycle - start) as f64);
                    }
                }
                _ => {}
            }
        }
        out.unresolved = open.len() as u64;
        out
    }

    /// Delivered packets whose transit went through a circuit, as a
    /// fraction of all categorized deliveries (0 when none were measured).
    pub fn circuit_ride_fraction(&self) -> f64 {
        let total = self.transit_circuit.count()
            + self.transit_packet.count()
            + self.transit_degraded.count();
        if total == 0 {
            0.0
        } else {
            self.transit_circuit.count() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ClassLabel;

    fn ev(cycle: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { cycle, kind }
    }

    #[test]
    fn splits_queueing_from_transit() {
        let events = vec![
            ev(
                10,
                EventKind::NiEnqueue {
                    packet: 1,
                    src: 0,
                    dst: 3,
                    class: ClassLabel("L1_REQ"),
                },
            ),
            ev(14, EventKind::NiInject { packet: 1, node: 0 }),
            ev(
                34,
                EventKind::NiEject {
                    packet: 1,
                    node: 3,
                    rode_circuit: false,
                    retries: 0,
                },
            ),
        ];
        let b = LatencyBreakdown::from_events(&events);
        assert_eq!(b.delivered, 1);
        assert_eq!(b.queueing.count(), 1);
        assert!((b.queueing.mean() - 4.0).abs() < 1e-12);
        assert!((b.transit_packet.mean() - 20.0).abs() < 1e-12);
        assert_eq!(b.transit_circuit.count(), 0);
        assert_eq!(b.unresolved, 0);
    }

    #[test]
    fn categorizes_circuit_and_degraded_rides() {
        let mut events = Vec::new();
        for (p, rode, retries) in [(1u64, true, 0u32), (2, false, 2)] {
            events.push(ev(0, EventKind::NiInject { packet: p, node: 0 }));
            events.push(ev(
                50,
                EventKind::NiEject {
                    packet: p,
                    node: 1,
                    rode_circuit: rode,
                    retries,
                },
            ));
        }
        let b = LatencyBreakdown::from_events(&events);
        assert_eq!(b.transit_circuit.count(), 1);
        assert_eq!(b.transit_degraded.count(), 1);
        assert!((b.circuit_ride_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn circuit_setup_is_first_reserve_to_confirm() {
        let events = vec![
            ev(
                5,
                EventKind::CircuitReserve {
                    node: 1,
                    requestor: 0,
                    block: 0x40,
                },
            ),
            ev(
                10,
                EventKind::CircuitReserve {
                    node: 2,
                    requestor: 0,
                    block: 0x40,
                },
            ),
            ev(
                25,
                EventKind::CircuitConfirm {
                    node: 3,
                    requestor: 0,
                    block: 0x40,
                },
            ),
        ];
        let b = LatencyBreakdown::from_events(&events);
        assert_eq!(b.circuit_setup.count(), 1);
        assert!((b.circuit_setup.mean() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn dropped_and_unresolved_are_counted() {
        let events = vec![
            ev(
                0,
                EventKind::NiEnqueue {
                    packet: 1,
                    src: 0,
                    dst: 1,
                    class: ClassLabel("L1_REQ"),
                },
            ),
            ev(
                0,
                EventKind::NiEnqueue {
                    packet: 2,
                    src: 0,
                    dst: 1,
                    class: ClassLabel("L1_REQ"),
                },
            ),
            ev(
                90,
                EventKind::PacketDropped {
                    packet: 1,
                    retries: 4,
                },
            ),
        ];
        let b = LatencyBreakdown::from_events(&events);
        assert_eq!(b.dropped, 1);
        assert_eq!(b.unresolved, 1);
        assert_eq!(b.delivered, 0);
    }
}
