//! Packets and flits.

use rcsim_core::circuit::{CircuitHandle, CircuitKey};
use rcsim_core::{Cycle, MessageClass, NodeId, Slab, Vnet};
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

    /// Overrides the packet length in flits. A packet has at least one
    /// flit and at most `u16::MAX`, the most a flit's sequence field
    /// counts: [`crate::Network::inject`] panics on any other length.
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

/// One 16-byte flow-control unit travelling through the network — here an
/// 8-byte handle: whose it is (a slot of the network's [`Packets`] table),
/// which flit of the packet, the VC it travels on and how it is tagged.
/// Everything else about the packet is in its record, once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(from = "u64", into = "u64")]
pub struct Flit {
    /// Slot of the owning packet's record.
    pub slot: u32,
    /// Flit index within the packet.
    pub seq: u16,
    /// The virtual channel the flit currently travels on (set by the
    /// sender's switch-traversal stage; the downstream buffer index).
    pub vc: u8,
    tags: u8,
}

// A flit is moved at every hop: eight to a cache line, and `Copy`.
const _: () = assert!(std::mem::size_of::<Flit>() == 8);
const _: fn() = || {
    fn copy<T: Copy>() {}
    copy::<Flit>();
};

impl Flit {
    const HEAD: u8 = 1;
    const TAIL: u8 = 2;
    /// The flit *rides* the circuit in its record's `riding` (looked up
    /// at every router input).
    pub(crate) const RIDES: u8 = 4;
    /// The flit belongs to a scrounger's circuit leg: it ejects at the
    /// circuit's end, short of the packet's real destination.
    pub(crate) const SCROUNGER: u8 = 8;

    /// Flit `seq` of the `len`-flit packet in `slot`, on `vc`, carrying
    /// the circuit `tags` of its copy ([`Flit::RIDES`], [`Flit::SCROUNGER`]).
    pub(crate) fn new(slot: u32, seq: u16, len: u32, vc: u8, mut tags: u8) -> Flit {
        tags |= if seq == 0 { Flit::HEAD } else { 0 };
        tags |= if u32::from(seq) + 1 == len {
            Flit::TAIL
        } else {
            0
        };
        Flit {
            slot,
            seq,
            vc,
            tags,
        }
    }

    /// `true` for the first flit of a packet.
    pub fn is_head(self) -> bool {
        self.tags & Flit::HEAD != 0
    }

    /// `true` for the last flit of a packet.
    pub fn is_tail(self) -> bool {
        self.tags & Flit::TAIL != 0
    }

    /// Head/body/tail position.
    pub fn kind(self) -> FlitKind {
        match (self.is_head(), self.is_tail()) {
            (true, true) => FlitKind::HeadTail,
            (true, false) => FlitKind::Head,
            (false, true) => FlitKind::Tail,
            (false, false) => FlitKind::Body,
        }
    }

    pub(crate) fn rides(self) -> bool {
        self.tags & Flit::RIDES != 0
    }

    pub(crate) fn scrounger(self) -> bool {
        self.tags & Flit::SCROUNGER != 0
    }
}

impl From<Flit> for u64 {
    fn from(f: Flit) -> u64 {
        u64::from(f.slot) | u64::from(f.seq) << 32 | u64::from(f.vc) << 48 | u64::from(f.tags) << 56
    }
}

impl From<u64> for Flit {
    fn from(w: u64) -> Flit {
        let (slot, seq, vc, tags) = (w as u32, (w >> 32) as u16, (w >> 48) as u8, (w >> 56) as u8);
        Flit {
            slot,
            seq,
            vc,
            tags,
        }
    }
}

/// Everything the network knows about one packet in flight, once: what
/// was injected, where its current traversal is headed and how, what the
/// fault layer did to it, and how much of it is still out there. Flits,
/// NI queues and the retry list refer to it by slot. Laid out by who
/// reads what: the first cache line is all a router's route computation
/// or an NI's flit count touches; the circuit keys, the handle under
/// construction and the delivery record's fields follow.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[repr(C, align(64))]
pub(crate) struct Packet {
    /// The id [`crate::Network::inject`] returned and traces print; a slot
    /// is reused, the id is not, so it doubles as the slot's generation.
    pub id: PacketId,
    pub src: NodeId,
    /// Destination of the *current traversal*: the circuit's end while
    /// `scrounger_final` is set, else the packet's real destination.
    pub dst: NodeId,
    /// For a scrounger leg: the real destination to re-inject towards
    /// after ejecting at `dst`.
    pub scrounger_final: Option<NodeId>,
    pub class: MessageClass,
    pub vnet: Vnet,
    /// The detour bit its source NI set at the current copy's head
    /// emission: routers follow the up*/down* table instead of DOR
    /// ([`rcsim_core::TopologyHealth::detours`], DESIGN.md §10).
    pub detour: bool,
    /// The reply committed to riding its own complete circuit at inject.
    pub committed: bool,
    /// A head was emitted and counted as this packet's injection.
    pub counted: bool,
    /// Delivered or abandoned: the record goes when `in_fabric` is zero.
    pub closed: bool,
    /// Total flits in the packet.
    pub len: u32,
    /// Flits of the current copy its destination NI has reassembled.
    pub received: u32,
    /// Flits of started copies not yet received or lost: on a link, in a
    /// buffer, or still to leave their NI stream.
    pub in_fabric: u32,
    /// End-to-end retransmissions issued so far.
    pub retries: u32,
    /// The circuit the flits tagged [`Flit::RIDES`] ride. Only a first
    /// copy or a scrounger leg rides, and a leg starts after the previous
    /// one arrived whole, so the key is never rewritten under a flit that
    /// reads it — a retransmission goes untagged and leaves it alone.
    pub riding: Option<CircuitKey>,
    /// The circuit a reply asked to ride, granted or not.
    pub circuit_key: Option<CircuitKey>,
    /// Circuit being *built* by this request (updated at every router).
    pub circuit: Option<CircuitHandle>,
    pub block: u64,
    pub token: u64,
    /// Cycle the packet was enqueued at the source NI.
    pub created_at: Cycle,
    /// Cycle the head left the NI queue; `None` until then, and again for
    /// a retransmission, which restamps it.
    pub injected_at: Option<Cycle>,
    /// Earliest cycle a committed circuit stream may start.
    pub start_at: Cycle,
}

impl Packet {
    /// The record of packet `id`, `len` flits long, as `spec` describes it
    /// at its injection at `now`, before its NI plans the traversal.
    pub(crate) fn new(id: PacketId, spec: &PacketSpec, len: u32, now: Cycle) -> Packet {
        Packet {
            id,
            src: spec.src,
            dst: spec.dst,
            scrounger_final: None,
            class: spec.class,
            vnet: spec.class.vnet(),
            detour: false,
            committed: false,
            counted: false,
            closed: false,
            len,
            received: 0,
            in_fabric: 0,
            retries: 0,
            riding: None,
            circuit_key: spec.circuit_key,
            circuit: None,
            block: spec.block,
            token: spec.token,
            created_at: now,
            injected_at: None,
            start_at: now,
        }
    }

    /// Where the packet is finally bound, scrounger leg or not.
    pub(crate) fn final_dst(&self) -> NodeId {
        self.scrounger_final.unwrap_or(self.dst)
    }
}

/// The network's packet table: one [`Packet`] per injected, not yet
/// resolved packet. A record is *closed* when the packet is delivered or
/// abandoned and *recycled* once none of its flits is left in the fabric
/// — a retransmission reuses the record while the lost copy's body flits
/// are still draining towards the link that ate their head.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct Packets {
    records: Slab<Packet>,
    /// Records not yet closed.
    open: usize,
}

impl Packets {
    /// Files a fresh packet and returns its slot.
    pub(crate) fn insert(&mut self, packet: Packet) -> u32 {
        self.open += 1;
        self.records.insert(packet)
    }

    /// The open record in `slot`, if it is still packet `id`'s.
    pub(crate) fn open_mut(&mut self, slot: u32, id: PacketId) -> Option<&mut Packet> {
        let open = |p: &&mut Packet| p.id == id && !p.closed;
        self.records.get_mut(slot).filter(open)
    }

    /// The packet is delivered or abandoned.
    pub(crate) fn close(&mut self, slot: u32) {
        self[slot].closed = true;
        self.open -= 1;
        self.recycle(slot);
    }

    /// One flit of the packet left the fabric (received or lost).
    pub(crate) fn flit_gone(&mut self, slot: u32) {
        self[slot].in_fabric -= 1;
        self.recycle(slot);
    }

    fn recycle(&mut self, slot: u32) {
        let packet = &self[slot];
        if packet.closed && packet.in_fabric == 0 {
            self.records.remove(slot);
        }
    }

    /// Packets injected and neither delivered nor abandoned.
    pub(crate) fn in_flight(&self) -> usize {
        self.open
    }

    /// The records held: open, or closed and draining.
    pub(crate) fn records(&self) -> &Slab<Packet> {
        &self.records
    }
}

impl std::ops::Index<u32> for Packets {
    type Output = Packet;
    fn index(&self, slot: u32) -> &Packet {
        let held = self.records.get(slot);
        held.expect("a flit names a live packet record")
    }
}

impl std::ops::IndexMut<u32> for Packets {
    fn index_mut(&mut self, slot: u32) -> &mut Packet {
        let held = self.records.get_mut(slot);
        held.expect("a flit names a live packet record")
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

    impl FlitKind {
        /// The kind for flit `seq` of a packet `len` flits long: the
        /// oracle [`Flit::kind`] is held to.
        fn for_position(seq: u32, len: u32) -> FlitKind {
            match (seq == 0, seq + 1 == len) {
                (true, true) => FlitKind::HeadTail,
                (true, false) => FlitKind::Head,
                (false, true) => FlitKind::Tail,
                (false, false) => FlitKind::Body,
            }
        }
    }

    #[test]
    fn flit_kind_positions() {
        assert_eq!(FlitKind::for_position(0, 1), FlitKind::HeadTail);
        assert_eq!(FlitKind::for_position(0, 5), FlitKind::Head);
        assert_eq!(FlitKind::for_position(2, 5), FlitKind::Body);
        assert_eq!(FlitKind::for_position(4, 5), FlitKind::Tail);
    }

    #[test]
    fn flit_handles_pack_position_and_tags() {
        for (seq, len) in [(0, 1), (0, 5), (2, 5), (4, 5)] {
            let f = Flit::new(7, seq, len, 3, Flit::RIDES);
            assert_eq!(f.kind(), FlitKind::for_position(seq.into(), len));
            assert!(f.rides() && !f.scrounger());
            assert_eq!(Flit::from(u64::from(f)), f);
        }
        assert!(Flit::new(0, 0, 1, 0, Flit::SCROUNGER).scrounger());
        assert_eq!(std::mem::size_of::<Flit>(), 8);
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
