//! The event vocabulary: everything the instrumented simulator can report.
//!
//! Events are small `Copy` records — a cycle stamp plus a flat payload of
//! plain integers — so emitting one is a couple of stores. Identifiers are
//! raw (`packet` ids as `u64`, nodes as `u16`, circuit keys as
//! `(requestor, block)`) rather than the simulator's newtypes: this crate
//! sits *below* `rcsim-core` in the dependency graph so every layer of the
//! stack can emit into the same sink.

use serde::{Deserialize, Serialize};

/// A message-class label. Live it is the `&'static str` the simulator
/// emits, so an event stays a `Copy` record of plain words; it serializes
/// as that string and, read back, is interned against the labels the
/// simulator knows.
#[derive(Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(from = "String", into = "String")]
pub struct ClassLabel(pub &'static str);

/// Prints as the bare string, so an event's `Debug` form is unchanged.
impl std::fmt::Debug for ClassLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl From<ClassLabel> for String {
    fn from(label: ClassLabel) -> Self {
        label.0.to_owned()
    }
}

impl From<String> for ClassLabel {
    /// Every label the simulator emits is known statically; an
    /// unrecognised one (a checkpoint from a newer build) is leaked once
    /// to satisfy the lifetime — bounded by ring capacity.
    fn from(label: String) -> Self {
        const KNOWN: [&str; 13] = [
            "Request",
            "FwdRequest",
            "Invalidation",
            "WbData",
            "MemRequest",
            "MemWbData",
            "L2_Reply",
            "L1_DATA_ACK",
            "L2_WB_ACK",
            "L1_INV_ACK",
            "MEMORY",
            "L1_TO_L1",
            "L1_REQ",
        ];
        let known = KNOWN.into_iter().find(|&k| k == label);
        ClassLabel(known.unwrap_or_else(|| Box::leak(label.into_boxed_str())))
    }
}

/// One traced occurrence, stamped with the simulation cycle it happened on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulation cycle of the occurrence.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

/// What happened. Grouped by the layer that emits it: network-interface
/// packet lifecycle, router pipeline stages, circuit-table transitions,
/// cache-protocol message lifecycle and periodic occupancy samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A packet entered its source NI's injection queue.
    NiEnqueue {
        /// Packet id.
        packet: u64,
        /// Source node.
        src: u16,
        /// Destination node.
        dst: u16,
        /// Message-class label (e.g. `"L2_Reply"`).
        class: ClassLabel,
    },
    /// The packet's head flit left the NI into the router's local port.
    NiInject {
        /// Packet id.
        packet: u64,
        /// Injecting node.
        node: u16,
    },
    /// The packet was fully reassembled and delivered at its destination.
    NiEject {
        /// Packet id.
        packet: u64,
        /// Receiving node.
        node: u16,
        /// `true` when the packet rode its own complete circuit.
        rode_circuit: bool,
        /// End-to-end retransmissions this packet needed (faults only).
        retries: u32,
    },
    /// The fault layer scheduled an end-to-end retransmission.
    NiRetry {
        /// Packet id.
        packet: u64,
        /// Retry number (1-based).
        attempt: u32,
    },
    /// The packet exhausted its retry budget and was abandoned.
    PacketDropped {
        /// Packet id.
        packet: u64,
        /// Retries spent before giving up.
        retries: u32,
    },
    /// A head flit won VC allocation (router pipeline stage 2).
    StageVa {
        /// Packet id.
        packet: u64,
        /// Router node.
        node: u16,
    },
    /// A head flit won switch allocation (router pipeline stage 3).
    StageSa {
        /// Packet id.
        packet: u64,
        /// Router node.
        node: u16,
    },
    /// A head flit traversed the crossbar (router pipeline stage 4).
    StageSt {
        /// Packet id.
        packet: u64,
        /// Router node.
        node: u16,
    },
    /// A head flit crossed a router on its circuit in a single cycle.
    CircuitBypass {
        /// Packet id.
        packet: u64,
        /// Router node.
        node: u16,
    },
    /// A request head wrote a circuit reservation into a router's table.
    CircuitReserve {
        /// Router node.
        node: u16,
        /// Circuit key: the original requestor…
        requestor: u16,
        /// …and the cache block.
        block: u64,
    },
    /// A reservation attempt failed (storage, same-source, output-port or
    /// window conflict).
    CircuitConflict {
        /// Router node.
        node: u16,
        /// Circuit key requestor.
        requestor: u16,
        /// Circuit key block.
        block: u64,
    },
    /// The reply registered a (fully or partially) built circuit origin at
    /// the responder's NI — the circuit is ready to use.
    CircuitConfirm {
        /// NI node.
        node: u16,
        /// Circuit key requestor.
        requestor: u16,
        /// Circuit key block.
        block: u64,
    },
    /// A router tore its reservation down (undo propagation).
    CircuitTear {
        /// Router node.
        node: u16,
        /// Circuit key requestor.
        requestor: u16,
        /// Circuit key block.
        block: u64,
    },
    /// An L1 miss started (request issued towards the home L2 bank).
    L1MissStart {
        /// L1 node.
        node: u16,
        /// Missing block.
        block: u64,
    },
    /// The outstanding L1 miss completed (fill arrived).
    L1MissEnd {
        /// L1 node.
        node: u16,
        /// Filled block.
        block: u64,
    },
    /// An L2 bank served (or started fetching) a request.
    L2Access {
        /// L2 node.
        node: u16,
        /// Accessed block.
        block: u64,
        /// `true` when the bank held the line.
        hit: bool,
    },
    /// A scheduled permanent fault killed an inter-router link.
    LinkDead {
        /// One endpoint of the link.
        a: u16,
        /// The other endpoint.
        b: u16,
    },
    /// A source NI sent a packet with the detour bit set: its DOR path
    /// crosses a dead link or is not up*/down*-legal.
    NiReroute {
        /// Packet id.
        packet: u64,
        /// Source node.
        node: u16,
    },
    /// An open-loop external arrival was admitted into an edge ingress
    /// queue (token available, queue below its bound).
    IngressAdmit {
        /// Edge node the arrival entered at.
        node: u16,
        /// Ingress queue depth after the admit.
        depth: u32,
    },
    /// An open-loop external arrival was refused at the edge — either the
    /// token bucket was empty or the bounded ingress queue was full. The
    /// refusal is explicit and typed: the client is told when to retry.
    IngressReject {
        /// Edge node the arrival was refused at.
        node: u16,
        /// `true` when the bounded queue was full, `false` when the
        /// admission controller was out of tokens.
        queue_full: bool,
        /// Cycles the client should wait before re-offering.
        retry_after: u64,
    },
    /// An admitted arrival was shed from an ingress queue after waiting
    /// past the shed timeout — deterministic load-shedding, never silent.
    IngressShed {
        /// Edge node that shed the arrival.
        node: u16,
        /// Cycles the arrival waited in the queue before being shed.
        waited: u64,
    },
    /// A periodic whole-network occupancy sample.
    EpochSample {
        /// Live circuit-table entries across all routers.
        circuit_entries: u64,
        /// Flits sitting in router VC buffers.
        buffered_flits: u64,
        /// Packets queued or streaming at the NIs.
        ni_backlog: u64,
    },
}

impl EventKind {
    /// Stable lower-snake name of the event kind (metrics keys, Chrome
    /// trace names).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::NiEnqueue { .. } => "ni_enqueue",
            EventKind::NiInject { .. } => "ni_inject",
            EventKind::NiEject { .. } => "ni_eject",
            EventKind::NiRetry { .. } => "ni_retry",
            EventKind::PacketDropped { .. } => "packet_dropped",
            EventKind::StageVa { .. } => "stage_va",
            EventKind::StageSa { .. } => "stage_sa",
            EventKind::StageSt { .. } => "stage_st",
            EventKind::CircuitBypass { .. } => "circuit_bypass",
            EventKind::CircuitReserve { .. } => "circuit_reserve",
            EventKind::CircuitConflict { .. } => "circuit_conflict",
            EventKind::CircuitConfirm { .. } => "circuit_confirm",
            EventKind::CircuitTear { .. } => "circuit_tear",
            EventKind::L1MissStart { .. } => "l1_miss_start",
            EventKind::L1MissEnd { .. } => "l1_miss_end",
            EventKind::L2Access { .. } => "l2_access",
            EventKind::LinkDead { .. } => "link_dead",
            EventKind::NiReroute { .. } => "ni_reroute",
            EventKind::IngressAdmit { .. } => "ingress_admit",
            EventKind::IngressReject { .. } => "ingress_reject",
            EventKind::IngressShed { .. } => "ingress_shed",
            EventKind::EpochSample { .. } => "epoch_sample",
        }
    }

    /// The packet this event is about, for lifecycle matching (`None` for
    /// circuit-table, cache and sampling events).
    pub fn packet(&self) -> Option<u64> {
        match self {
            EventKind::NiEnqueue { packet, .. }
            | EventKind::NiInject { packet, .. }
            | EventKind::NiEject { packet, .. }
            | EventKind::NiRetry { packet, .. }
            | EventKind::PacketDropped { packet, .. }
            | EventKind::StageVa { packet, .. }
            | EventKind::StageSa { packet, .. }
            | EventKind::StageSt { packet, .. }
            | EventKind::CircuitBypass { packet, .. }
            | EventKind::NiReroute { packet, .. } => Some(*packet),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_distinct() {
        let kinds = [
            EventKind::NiEnqueue {
                packet: 1,
                src: 0,
                dst: 1,
                class: ClassLabel("L1_REQ"),
            },
            EventKind::NiInject { packet: 1, node: 0 },
            EventKind::EpochSample {
                circuit_entries: 0,
                buffered_flits: 0,
                ni_backlog: 0,
            },
        ];
        let names: Vec<_> = kinds.iter().map(EventKind::name).collect();
        assert_eq!(names, vec!["ni_enqueue", "ni_inject", "epoch_sample"]);
    }

    #[test]
    fn packet_extraction() {
        let k = EventKind::NiEject {
            packet: 7,
            node: 3,
            rode_circuit: true,
            retries: 0,
        };
        assert_eq!(k.packet(), Some(7));
        let s = EventKind::EpochSample {
            circuit_entries: 1,
            buffered_flits: 2,
            ni_backlog: 3,
        };
        assert_eq!(s.packet(), None);
    }

    #[test]
    fn events_serialize_to_json() {
        let e = TraceEvent {
            cycle: 42,
            kind: EventKind::NiInject { packet: 9, node: 4 },
        };
        let s = serde_json::to_string(&e).unwrap();
        assert!(s.contains("\"cycle\":42"), "{s}");
        assert!(s.contains("NiInject"), "{s}");
        assert_eq!(serde_json::from_str::<TraceEvent>(&s).unwrap(), e);
    }

    /// The class label is a plain JSON string; a known one reads back as
    /// the very `'static` the simulator emits, an unknown one still reads.
    #[test]
    fn class_labels_intern_on_read() {
        let e = TraceEvent {
            cycle: 1,
            kind: EventKind::NiEnqueue {
                packet: 2,
                src: 3,
                dst: 4,
                class: ClassLabel("L2_Reply"),
            },
        };
        let s = serde_json::to_string(&e).unwrap();
        assert!(s.contains("\"class\":\"L2_Reply\""), "{s}");
        assert_eq!(serde_json::from_str::<TraceEvent>(&s).unwrap(), e);
        let newer = s.replace("L2_Reply", "L3_Reply");
        let EventKind::NiEnqueue { class, .. } =
            serde_json::from_str::<TraceEvent>(&newer).unwrap().kind
        else {
            panic!("still an enqueue");
        };
        assert_eq!(class.0, "L3_Reply");
    }
}
