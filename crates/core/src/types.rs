//! Base identifier and message-class types shared by every layer.

use crate::table4::FLIT_BYTES;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Simulation time in core/network clock cycles (the whole chip runs at a
/// single 2 GHz clock in the paper's configuration).
pub type Cycle = u64;

/// Identifier of a tile (core + L1 + L2 bank + router). Tiles are numbered
/// row-major across the mesh.
///
/// # Examples
///
/// ```
/// use rcsim_core::types::NodeId;
/// let n = NodeId(5);
/// assert_eq!(n.index(), 5);
/// assert_eq!(format!("{n}"), "n5");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The node index as a `usize`, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

/// An (x, y) position on the router grid; `x` grows east, `y` grows south.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Coord {
    /// Column, `0..width`.
    pub x: u16,
    /// Row, `0..height`.
    pub y: u16,
}

/// Virtual network. The baseline NoC has two: one for requests and one for
/// replies (Table 4), which also makes the XY/YX routing split deadlock-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vnet {
    /// Carries coherence requests, forwards, invalidations and write-back
    /// data; routed XY.
    Request,
    /// Carries all reply classes; routed YX.
    Reply,
}

impl Vnet {
    /// Both virtual networks, request first.
    pub const ALL: [Vnet; 2] = [Vnet::Request, Vnet::Reply];

    /// Dense index in `0..2`.
    pub fn index(self) -> usize {
        match self {
            Vnet::Request => 0,
            Vnet::Reply => 1,
        }
    }
}

impl fmt::Display for Vnet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Vnet::Request => f.write_str("req"),
            Vnet::Reply => f.write_str("rep"),
        }
    }
}

/// Every message class exchanged by the coherence protocol (paper Table 3),
/// with the request/reply and circuit-eligibility attributes of Table 1 and
/// §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MessageClass {
    /// L1 miss request (GetS/GetX) from L1 to the home L2 bank.
    L1Request,
    /// L2 forwards a request to the L1 that owns the line exclusively.
    FwdRequest,
    /// Invalidation from L2 to an L1 sharer.
    Invalidation,
    /// Write-back data from L1 to L2 (L1 replacement).
    WbData,
    /// L2 miss request from an L2 bank to a memory controller.
    MemRequest,
    /// L2 replacement data from an L2 bank to a memory controller.
    MemWbData,
    /// `L2_Replies`: data from L2 to L1.
    L2Reply,
    /// `L1_DATA_ACK`: L1 acknowledges data reception to L2.
    L1DataAck,
    /// `L2_WB_ACK`: L2 acknowledges write-back reception to L1.
    L2WbAck,
    /// `L1_INV_ACK`: invalidation acknowledgement from L1 to L2.
    L1InvAck,
    /// `MEMORY`: data (or write-back ack) from the memory controller to L2.
    MemoryReply,
    /// `L1_TO_L1`: data sent directly from the owning L1 to the requestor.
    L1ToL1,
}

impl MessageClass {
    /// All message classes, requests first.
    pub const ALL: [MessageClass; 12] = [
        MessageClass::L1Request,
        MessageClass::FwdRequest,
        MessageClass::Invalidation,
        MessageClass::WbData,
        MessageClass::MemRequest,
        MessageClass::MemWbData,
        MessageClass::L2Reply,
        MessageClass::L1DataAck,
        MessageClass::L2WbAck,
        MessageClass::L1InvAck,
        MessageClass::MemoryReply,
        MessageClass::L1ToL1,
    ];

    /// Which virtual network the class travels on. Anything that is a reply
    /// to another message uses the reply VN; everything else (including
    /// write-back *data*, which initiates a transaction) uses the request VN.
    pub fn vnet(self) -> Vnet {
        if self.is_reply() {
            Vnet::Reply
        } else {
            Vnet::Request
        }
    }

    /// `true` for the six reply classes of Table 1.
    pub fn is_reply(self) -> bool {
        matches!(
            self,
            MessageClass::L2Reply
                | MessageClass::L1DataAck
                | MessageClass::L2WbAck
                | MessageClass::L1InvAck
                | MessageClass::MemoryReply
                | MessageClass::L1ToL1
        )
    }

    /// `true` if a reactive circuit is built for this reply class (§4.1:
    /// `L2_Replies`, write-back acknowledgements and `MEMORY` replies).
    pub fn circuit_eligible(self) -> bool {
        matches!(
            self,
            MessageClass::L2Reply | MessageClass::L2WbAck | MessageClass::MemoryReply
        )
    }

    /// `true` if this request class reserves a circuit for its reply while
    /// it travels (§4.1). `FwdRequest` and `Invalidation` do not: their
    /// replies (`L1_TO_L1`, `L1_INV_ACK`) follow different paths.
    pub fn builds_circuit(self) -> bool {
        matches!(
            self,
            MessageClass::L1Request
                | MessageClass::WbData
                | MessageClass::MemRequest
                | MessageClass::MemWbData
        )
    }

    /// `true` for classes that carry a whole 64 B cache line: a head flit
    /// plus the line in [`FLIT_BYTES`]-byte flits, 5 flits. Control
    /// messages are a single flit.
    pub fn carries_data(self) -> bool {
        matches!(
            self,
            MessageClass::WbData
                | MessageClass::MemWbData
                | MessageClass::L2Reply
                | MessageClass::MemoryReply
                | MessageClass::L1ToL1
        )
    }

    /// Message length in flits. Data messages carry a 64 B line plus a
    /// header flit.
    pub fn flits(self) -> u32 {
        if self.carries_data() {
            1 + 64_u32.div_ceil(FLIT_BYTES)
        } else {
            1
        }
    }

    /// Short label matching the paper's terminology, for reports.
    pub fn label(self) -> &'static str {
        match self {
            MessageClass::L1Request => "Request",
            MessageClass::FwdRequest => "FwdRequest",
            MessageClass::Invalidation => "Invalidation",
            MessageClass::WbData => "WbData",
            MessageClass::MemRequest => "MemRequest",
            MessageClass::MemWbData => "MemWbData",
            MessageClass::L2Reply => "L2_Reply",
            MessageClass::L1DataAck => "L1_DATA_ACK",
            MessageClass::L2WbAck => "L2_WB_ACK",
            MessageClass::L1InvAck => "L1_INV_ACK",
            MessageClass::MemoryReply => "MEMORY",
            MessageClass::L1ToL1 => "L1_TO_L1",
        }
    }
}

impl fmt::Display for MessageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_classes_use_reply_vnet() {
        for c in MessageClass::ALL {
            assert_eq!(c.is_reply(), c.vnet() == Vnet::Reply, "{c}");
        }
    }

    #[test]
    fn eligibility_matches_paper() {
        use MessageClass::*;
        let eligible: Vec<_> = MessageClass::ALL
            .into_iter()
            .filter(|c| c.circuit_eligible())
            .collect();
        assert_eq!(eligible, vec![L2Reply, L2WbAck, MemoryReply]);
        // Only replies can be circuit-eligible.
        for c in MessageClass::ALL {
            if c.circuit_eligible() {
                assert!(c.is_reply());
            }
        }
    }

    #[test]
    fn builders_are_requests() {
        for c in MessageClass::ALL {
            if c.builds_circuit() {
                assert!(!c.is_reply(), "{c} cannot both build and be a reply");
            }
        }
        assert!(!MessageClass::FwdRequest.builds_circuit());
        assert!(!MessageClass::Invalidation.builds_circuit());
    }

    #[test]
    fn flit_counts() {
        assert_eq!(MessageClass::L1Request.flits(), 1);
        assert_eq!(MessageClass::L2Reply.flits(), 5);
        assert_eq!(MessageClass::WbData.flits(), 5);
        assert_eq!(MessageClass::L1DataAck.flits(), 1);
    }

    #[test]
    fn node_display() {
        assert_eq!(NodeId::from(3).to_string(), "n3");
        assert_eq!(Vnet::Reply.to_string(), "rep");
    }
}
