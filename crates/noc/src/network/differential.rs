#![cfg(test)]
//! The network differential: a production [`Network`] and a
//! [`RefNetwork`] fed the same seeded request/reply traffic must deliver
//! the same packets, emit the same trace events and count the same
//! [`Activity`](crate::stats::Activity) at every router, every cycle.
//!
//! Every tile keeps up to [`WINDOW`] requests out: a one-flit `L1Request`
//! or, now and then, a five-flit `WbData`, both of which build circuits
//! under a circuit mechanism. A delivered request is answered with its
//! reply (`L2Reply`, `L2WbAck`) after a seeded turnaround close to the one
//! the request announced, asking to ride the circuit it built; one in ten
//! is answered after the responder undid that circuit instead (§4.4). Each
//! delivery must be a packet that was sent and not yet delivered. After
//! `cycles`, no new request starts and the row runs until both networks
//! are empty, failing if that takes more than [`DRAIN`] cycles. The first
//! difference fails the row with its cycle and component.

use super::reference::RefNetwork;
use super::Network;
use crate::config::NocConfig;
use crate::flit::{Delivered, PacketSpec};
use crate::router::differential::{versions, Rng};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{Cycle, MechanismConfig, MessageClass, NodeId, Topology};
use rcsim_trace::TraceSink;

/// Requests a tile keeps out at once.
const WINDOW: u32 = 4;

/// Percent chance per cycle that a tile with room starts a request.
const LOAD: u64 = 4;

/// Cycles a row may take to empty once no new request starts.
const DRAIN: Cycle = 20_000;

/// One row: both networks and the traffic driving them.
struct Harness {
    label: String,
    prod: Network,
    reference: RefNetwork,
    traces: [TraceSink; 2],
    rng: Rng,
    /// Requests each tile has out.
    outstanding: Vec<u32>,
    /// Replies to send, with the cycle they are due and whether their
    /// responder undoes the circuit first.
    replies: Vec<(Cycle, PacketSpec, bool)>,
    /// Per token: the packet sent (source, destination, class) and
    /// whether it was delivered.
    sent: Vec<(NodeId, NodeId, MessageClass, bool)>,
}

impl Harness {
    fn new(topology: Topology, mechanism: MechanismConfig, seed: u64) -> Self {
        let cfg = NocConfig::paper_baseline(topology, mechanism);
        let traces = [TraceSink::ring(1 << 14), TraceSink::ring(1 << 14)];
        let mut prod = Network::new(cfg).expect("a valid configuration");
        let mut reference = RefNetwork::new(cfg);
        prod.set_trace_sink(traces[0].clone());
        reference.set_trace_sink(traces[1].clone());
        let (w, h) = topology.dims();
        Harness {
            label: format!("{} {w}x{h} {mechanism} seed {seed}", topology.label()),
            prod,
            reference,
            traces,
            rng: Rng(seed),
            outstanding: vec![0; topology.nodes()],
            replies: Vec::new(),
            sent: Vec::new(),
        }
    }

    /// Injects `spec` into both networks, which must take it alike.
    fn inject(&mut self, now: Cycle, spec: PacketSpec) {
        let spec = spec.with_token(self.sent.len() as u64);
        self.sent.push((spec.src, spec.dst, spec.class, false));
        let (a, b) = (self.prod.inject(spec), self.reference.inject(spec));
        assert_eq!(a, b, "{}: injection differs at cycle {now}", self.label);
    }

    /// Starts this cycle's requests.
    fn request(&mut self, now: Cycle) {
        let n = self.outstanding.len() as u64;
        for src in 0..n {
            if self.outstanding[src as usize] == WINDOW || !self.rng.chance(LOAD) {
                continue;
            }
            let dst = (src + self.rng.range(1, n - 1)) % n;
            let class = if self.rng.chance(20) {
                MessageClass::WbData
            } else {
                MessageClass::L1Request
            };
            let block = 64 * self.sent.len() as u64;
            let turnaround = self.rng.range(2, 20) as u32;
            let spec = PacketSpec::new(NodeId(src as u16), NodeId(dst as u16), class)
                .with_block(block)
                .with_turnaround(turnaround);
            self.outstanding[src as usize] += 1;
            self.inject(now, spec);
        }
    }

    /// Sends the replies due at `now`.
    fn reply(&mut self, now: Cycle) {
        let due: Vec<_> = self.replies.extract_if(.., |r| r.0 <= now).collect();
        for (_, spec, undo) in due {
            let mut spec = spec;
            if undo {
                let key = spec.circuit_key.take().expect("a reply names its circuit");
                let (a, b) = (
                    self.prod.undo_circuit(spec.src, key),
                    self.reference.undo_circuit(spec.src, key),
                );
                assert_eq!(a, b, "{}: undo differs at cycle {now}", self.label);
            }
            self.inject(now, spec);
        }
    }

    /// Checks one delivery against what was sent and answers a request.
    fn delivered(&mut self, now: Cycle, node: NodeId, d: &Delivered) {
        let sent = &mut self.sent[d.token as usize];
        assert_eq!(
            (sent.0, sent.1, sent.2, sent.3),
            (d.src, node, d.class, false),
            "{}: cycle {now}: NI {node} delivered {d:?}, not the packet sent with its token",
            self.label
        );
        sent.3 = true;
        let reply = match d.class {
            MessageClass::L1Request => MessageClass::L2Reply,
            MessageClass::WbData => MessageClass::L2WbAck,
            _ => {
                self.outstanding[node.index()] -= 1;
                return;
            }
        };
        let turnaround = d.circuit.map_or(8, |h| Cycle::from(h.turnaround));
        let at = now + self.rng.range(turnaround.saturating_sub(3), turnaround + 3);
        let key = CircuitKey {
            requestor: d.src,
            block: d.block,
        };
        let spec = PacketSpec::new(node, d.src, reply)
            .with_block(d.block)
            .with_circuit_key(key);
        let undo = self.rng.chance(10);
        self.replies.push((at, spec, undo));
    }

    /// Compares what both networks did in cycle `now`: deliveries, trace
    /// events, then each router's activity.
    fn compare(&mut self, now: Cycle) {
        let label = &self.label;
        let (got, want) = (
            self.prod.take_all_delivered(),
            self.reference.take_all_delivered(),
        );
        assert!(
            got == want,
            "{label}: first difference at cycle {now}, NI deliveries:\n\
             production {got:?}\n reference {want:?}"
        );
        let (events, expected) = (self.traces[0].drain(), self.traces[1].drain());
        if events != expected {
            let k = (events.iter().zip(&expected))
                .position(|(a, b)| a != b)
                .unwrap_or(events.len().min(expected.len()));
            panic!(
                "{label}: first difference at cycle {now}, trace event {k}:\n\
                 production {:?}\n reference {:?}",
                events.get(k),
                expected.get(k)
            );
        }
        let routers = self.prod.routers.iter().zip(&self.reference.routers);
        for (i, (p, r)) in routers.enumerate() {
            assert!(
                p.state.activity == r.activity,
                "{label}: first difference at cycle {now}, router {i} activity:\n\
                 production {:?}\n reference {:?}",
                p.state.activity,
                r.activity
            );
        }
        for (node, d) in got {
            self.delivered(now, node, &d);
        }
    }

    /// Runs `cycles` cycles of traffic and then until both networks are
    /// empty; returns the reference routers' summed bypasses and undos.
    fn run(mut self, cycles: Cycle) -> (String, u64, u64) {
        for now in 0.. {
            if now < cycles {
                self.request(now);
            }
            self.reply(now);
            self.prod.tick();
            self.reference.tick();
            self.compare(now);
            let empty = self.prod.is_quiescent() && self.reference.is_quiescent();
            if now >= cycles && empty && self.replies.is_empty() {
                break;
            }
            assert!(
                now < cycles + DRAIN,
                "{}: did not drain by cycle {now}\n{}",
                self.label,
                self.prod.debug_dump()
            );
        }
        assert!(
            self.sent.iter().all(|s| s.3),
            "{}: a packet was never delivered",
            self.label
        );
        let coverage = self.reference.routers.iter().map(|r| r.coverage);
        let (bypasses, undos) = coverage.fold((0, 0), |(b, u), c| (b + c.bypasses, u + c.undos));
        (self.label, bypasses, undos)
    }
}

/// Runs `seeds` seeds of one row, requiring a circuit mechanism to have
/// carried flits on circuits and undone some.
fn row(topology: Topology, mechanism: MechanismConfig, seeds: u64, cycles: Cycle) {
    for seed in 1..=seeds {
        let (label, bypasses, undos) = Harness::new(topology, mechanism, seed).run(cycles);
        eprintln!("{label}: {cycles} cycles, {bypasses} bypasses, {undos} undos");
        if mechanism.circuits_enabled() {
            assert!(bypasses > 0 && undos > 0, "{label}: no bypass or no undo");
        }
    }
}

fn mesh(k: u16) -> Topology {
    Topology::mesh(k, k).expect("valid")
}

fn torus(k: u16) -> Topology {
    Topology::torus(k, k).expect("valid")
}

/// The twelve default rows: mesh and torus, 4×4 and 8×8, each under the
/// baseline, complete and fragmented circuits, one seed each.
macro_rules! rows {
    ($($name:ident: $topology:expr, $mechanism:ident, $cycles:expr;)*) => {
        $(
            #[test]
            fn $name() {
                row($topology, MechanismConfig::$mechanism(), 1, $cycles);
            }
        )*
    };
}

rows! {
    mesh_4x4_baseline: mesh(4), baseline, 6_000;
    mesh_4x4_complete: mesh(4), complete, 6_000;
    mesh_4x4_fragmented: mesh(4), fragmented, 6_000;
    mesh_8x8_baseline: mesh(8), baseline, 2_500;
    mesh_8x8_complete: mesh(8), complete, 2_500;
    mesh_8x8_fragmented: mesh(8), fragmented, 2_500;
    torus_4x4_baseline: torus(4), baseline, 6_000;
    torus_4x4_complete: torus(4), complete, 6_000;
    torus_4x4_fragmented: torus(4), fragmented, 6_000;
    torus_8x8_baseline: torus(8), baseline, 2_500;
    torus_8x8_complete: torus(8), complete, 2_500;
    torus_8x8_fragmented: torus(8), fragmented, 2_500;
}

/// The long size, for a release build: every version on `topology`.
fn long(topology: Topology) {
    for mechanism in versions() {
        row(topology, mechanism, 8, 20_000);
    }
}

#[test]
#[ignore]
fn long_mesh() {
    long(mesh(8));
}

#[test]
#[ignore]
fn long_torus() {
    long(torus(8));
}
