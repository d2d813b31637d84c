//! Messages on the TLB interconnect.
//!
//! Translation traffic is tiny: a request carries a virtual page number and
//! slice id, a response carries a physical frame. Both fit in a single flit
//! on a 64-bit datapath, so the network models treat every message as one
//! flit (no serialization delay; the paper's narrow-FBFly serialization
//! penalty is modelled analytically in [`crate::latency`]).

use nocstar_faults::PendingMessage;
use nocstar_types::time::Cycle;
use nocstar_types::CoreId;
use std::fmt;

/// What a message is carrying (used for statistics and for the simulator's
/// dispatch; the network treats all kinds identically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// L1-TLB-miss lookup request to a shared L2 slice/bank.
    TlbRequest,
    /// Translation (or miss notification) back to the requester.
    TlbResponse,
    /// Shootdown invalidation towards a slice or a leader core.
    Invalidation,
    /// Insert of a freshly walked translation into a remote slice
    /// (walk-at-requester policy, Fig 17).
    Insert,
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsgKind::TlbRequest => write!(f, "req"),
            MsgKind::TlbResponse => write!(f, "resp"),
            MsgKind::Invalidation => write!(f, "inval"),
            MsgKind::Insert => write!(f, "insert"),
        }
    }
}

/// A single-flit message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Message {
    /// Caller-chosen id used to match deliveries back to transactions.
    pub id: u64,
    /// Source tile.
    pub src: CoreId,
    /// Destination tile.
    pub dst: CoreId,
    /// Payload kind.
    pub kind: MsgKind,
}

impl Message {
    /// Builds a message.
    pub fn new(id: u64, src: CoreId, dst: CoreId, kind: MsgKind) -> Self {
        Self { id, src, dst, kind }
    }

    /// True when source and destination share a tile (no network traversal).
    pub fn is_local(&self) -> bool {
        self.src == self.dst
    }

    /// This message as a diagnostic-snapshot entry.
    pub fn pending(&self, submitted_at: Cycle, attempts: u64) -> PendingMessage {
        PendingMessage {
            id: self.id,
            src: self.src.index(),
            dst: self.dst.index(),
            kind: format!("{:?}", self.kind),
            submitted_at: submitted_at.value(),
            attempts,
        }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{} {}->{}", self.kind, self.id, self.src, self.dst)
    }
}

/// A message arriving at its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The delivered message.
    pub msg: Message,
    /// Arrival cycle. Private, so a scheduled arrival can be read but
    /// never rewritten in place: only a fabric stamps it, once.
    at: Cycle,
}

impl Delivery {
    /// `msg`, arriving at cycle `at`.
    #[inline]
    pub(crate) fn new(msg: Message, at: Cycle) -> Delivery {
        Delivery { msg, at }
    }

    /// Arrival cycle.
    #[inline]
    pub fn at(&self) -> Cycle {
        self.at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_is_src_eq_dst() {
        let local = Message::new(1, CoreId::new(3), CoreId::new(3), MsgKind::TlbRequest);
        assert!(local.is_local());
        let remote = Message::new(2, CoreId::new(3), CoreId::new(4), MsgKind::TlbResponse);
        assert!(!remote.is_local());
    }

    #[test]
    fn display_shows_route() {
        let m = Message::new(7, CoreId::new(0), CoreId::new(5), MsgKind::Invalidation);
        assert_eq!(m.to_string(), "inval#7 core0->core5");
    }
}
