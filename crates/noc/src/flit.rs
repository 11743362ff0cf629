//! Packets and flits.

use rcsim_core::circuit::{CircuitHandle, CircuitKey};
use rcsim_core::{Cycle, MessageClass, NodeId, Vnet};
use serde::{Deserialize, Serialize};

/// Unique packet identifier (monotonic per network instance).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PacketId(pub u64);

/// What a caller submits to [`crate::Network::inject`]: everything about a
/// message except the identifiers the network assigns.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacketSpec {
    /// Source node.
    pub src: NodeId,
    /// Destination node (for scroungers, the intermediate hop; the final
    /// destination lives in `scrounger_final`).
    pub dst: NodeId,
    /// Coherence message class (fixes VN, size and circuit eligibility).
    pub class: MessageClass,
    /// Cache-line address of the transaction (part of the circuit key).
    pub block: u64,
    /// Opaque token echoed back on delivery (protocol transaction id).
    pub token: u64,
    /// Expected responder turnaround for circuit reservation (L2 hit or
    /// memory latency); only meaningful for circuit-building requests.
    pub turnaround: u32,
    /// For replies: the circuit key to ride, if the sender's NI holds a
    /// built circuit for this transaction.
    pub circuit_key: Option<CircuitKey>,
    /// Whether this packet should be classified in the Figure 6 reply
    /// outcome statistics (the protocol sets this to `false` for replies
    /// whose outcome was already recorded, e.g. `L1_TO_L1` data after an
    /// `undone` circuit).
    pub count_outcome: bool,
    /// Overrides the class-derived length in flits (e.g. the `MEMORY`
    /// acknowledgement of an L2 write-back is a single flit even though
    /// the class usually carries a line).
    pub flits_override: Option<u32>,
}

impl PacketSpec {
    /// A packet of `class` from `src` to `dst` with default metadata.
    pub fn new(src: NodeId, dst: NodeId, class: MessageClass) -> Self {
        Self {
            src,
            dst,
            class,
            block: 0,
            token: 0,
            turnaround: 7,
            circuit_key: None,
            count_outcome: true,
            flits_override: None,
        }
    }

    /// Overrides the packet length in flits.
    pub fn with_flits(mut self, flits: u32) -> Self {
        self.flits_override = Some(flits);
        self
    }

    /// Excludes this packet from the reply-outcome statistics.
    pub fn without_outcome(mut self) -> Self {
        self.count_outcome = false;
        self
    }

    /// Sets the cache-line address.
    pub fn with_block(mut self, block: u64) -> Self {
        self.block = block;
        self
    }

    /// Sets the protocol token.
    pub fn with_token(mut self, token: u64) -> Self {
        self.token = token;
        self
    }

    /// Sets the expected responder turnaround.
    pub fn with_turnaround(mut self, turnaround: u32) -> Self {
        self.turnaround = turnaround;
        self
    }

    /// Marks this reply as wanting to use a previously built circuit.
    pub fn with_circuit_key(mut self, key: CircuitKey) -> Self {
        self.circuit_key = Some(key);
        self
    }
}

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlitKind {
    /// First flit of a multi-flit packet.
    Head,
    /// Middle flit.
    Body,
    /// Last flit of a multi-flit packet.
    Tail,
    /// Single-flit packet.
    HeadTail,
}

impl FlitKind {
    /// `true` for `Head` and `HeadTail`.
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// `true` for `Tail` and `HeadTail`.
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }

    /// The kind for flit `seq` of a packet `len` flits long.
    pub fn for_position(seq: u32, len: u32) -> FlitKind {
        match (seq == 0, seq + 1 == len) {
            (true, true) => FlitKind::HeadTail,
            (true, false) => FlitKind::Head,
            (false, true) => FlitKind::Tail,
            (false, false) => FlitKind::Body,
        }
    }
}

/// One 16-byte flow-control unit travelling through the network.
///
/// Only what every flit of a packet needs at every router travels inline;
/// the packet's routing and bookkeeping data rides in the head flit alone
/// ([`Head`]), as in a real wormhole network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Flit {
    /// Owning packet.
    pub packet: PacketId,
    /// Head/body/tail position.
    pub kind: FlitKind,
    /// Flit index within the packet.
    pub seq: u32,
    /// The virtual channel the flit currently travels on (set by the
    /// sender's switch-traversal stage; the downstream buffer index).
    pub vc: u8,
    /// Circuit this reply *rides* (looked up at every router input).
    pub on_circuit: Option<CircuitKey>,
    /// For scrounger replies: the real destination to re-inject towards
    /// after ejecting at the head's `dst`.
    pub scrounger_final: Option<NodeId>,
    /// The packet's header: `Some` on head flits, `None` on the rest.
    pub head: Option<Box<Head>>,
}

/// The per-packet data a head flit carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Head {
    /// Total flits in the packet.
    pub len: u32,
    /// Source node.
    pub src: NodeId,
    /// Destination node of *this network traversal* (a scrounger's
    /// intermediate hop).
    pub dst: NodeId,
    /// Message class.
    pub class: MessageClass,
    /// Virtual network.
    pub vnet: Vnet,
    /// Set by the fault layer when the packet is corrupted in transit;
    /// the destination NI discards the packet instead of delivering it
    /// and the source retransmits.
    pub corrupted: bool,
    /// Circuit being *built* by this request (updated at every router).
    pub circuit: Option<Box<CircuitHandle>>,
    /// Cache-line address.
    pub block: u64,
    /// Protocol token.
    pub token: u64,
    /// Cycle the packet was enqueued at the source NI.
    pub created_at: Cycle,
    /// Cycle the packet's head entered the network (left the NI queue).
    pub injected_at: Cycle,
    /// Recorded source route: the full router sequence the packet must
    /// follow, set by the source NI when DOR would cross a dead link or
    /// router. Routers on the path forward along it; replies to a
    /// detoured request retrace it reversed so the reservation symmetry
    /// of §4.1 survives rerouting (DESIGN.md §10). `None` for the
    /// ordinary DOR case.
    pub path: Option<Box<Vec<NodeId>>>,
}

// A flit is moved at every hop; keep it within one cache line.
const _: () = assert!(std::mem::size_of::<Flit>() <= 64);

impl Flit {
    /// The header of a head flit; panics on a body or tail flit.
    pub fn head(&self) -> &Head {
        self.head.as_deref().expect("head flits carry a header")
    }
}

/// A fully received packet handed back to the destination's user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Delivered {
    /// Packet id.
    pub packet: PacketId,
    /// Source node.
    pub src: NodeId,
    /// This node (destination of the traversal).
    pub dst: NodeId,
    /// Message class.
    pub class: MessageClass,
    /// Cache-line address.
    pub block: u64,
    /// Protocol token.
    pub token: u64,
    /// Enqueue / injection / delivery timestamps.
    pub created_at: Cycle,
    /// Cycle the head flit left the NI queue.
    pub injected_at: Cycle,
    /// Cycle the tail flit reached this NI.
    pub delivered_at: Cycle,
    /// For delivered requests: the circuit-construction record, so the
    /// receiver's NI can register the circuit origin.
    pub circuit: Option<CircuitHandle>,
    /// `true` if this reply arrived riding a circuit.
    pub rode_circuit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_kind_positions() {
        assert_eq!(FlitKind::for_position(0, 1), FlitKind::HeadTail);
        assert_eq!(FlitKind::for_position(0, 5), FlitKind::Head);
        assert_eq!(FlitKind::for_position(2, 5), FlitKind::Body);
        assert_eq!(FlitKind::for_position(4, 5), FlitKind::Tail);
        assert!(FlitKind::HeadTail.is_head() && FlitKind::HeadTail.is_tail());
        assert!(FlitKind::Head.is_head() && !FlitKind::Head.is_tail());
        assert!(!FlitKind::Body.is_head() && !FlitKind::Body.is_tail());
    }

    #[test]
    fn spec_builders() {
        let s = PacketSpec::new(NodeId(1), NodeId(2), MessageClass::L1Request)
            .with_block(0x1040)
            .with_token(77)
            .with_turnaround(160);
        assert_eq!(s.block, 0x1040);
        assert_eq!(s.token, 77);
        assert_eq!(s.turnaround, 160);
        assert!(s.circuit_key.is_none());
    }
}
