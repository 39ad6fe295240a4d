//! Identifiers shared between the transactional and data components.

use crate::lsn::Lsn;
use std::fmt;

/// Identifies one Transactional Component instance.
///
/// Multiple TCs may share a single DC (paper Section 6); the DC then keeps
/// idempotence state (abstract LSNs) *per TC*, because TCs do not
/// coordinate how they manage their logs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TcId(pub u16);

impl fmt::Display for TcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TC{}", self.0)
    }
}

/// Identifies one Data Component instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct DcId(pub u16);

impl fmt::Display for DcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DC{}", self.0)
    }
}

/// Identifies a page inside one DC.
///
/// Pages are the DC's private business: the TC never sees a `PageId`
/// (paper Section 1.2 — "All knowledge of pages is confined to a DC").
/// The type lives here only because DC-side crates share it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PageId(pub u64);

impl PageId {
    /// Sentinel for "no page".
    pub const NULL: PageId = PageId(0);

    /// True if this is the null sentinel.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifies a table (an index / storage structure) inside a DC.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TableId(pub u32);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifies a user transaction inside one TC.
///
/// The DC never learns transaction ids: `perform_operation` deliberately
/// carries no transactional context (paper Section 4.2.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0)
    }
}

/// Identifies a DC-internal *system transaction* (paper Section 5.2):
/// an atomic structure modification such as a page split or consolidation,
/// invisible to the TC and recovered from the DC's own log.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SysTxnId(pub u64);

impl fmt::Display for SysTxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Correlates a request with its eventual reply, and — for state-changing
/// operations — doubles as the *unique, monotonically increasing request
/// identifier* that the DC's idempotence machinery tracks (Section 4.2:
/// "usually an LSN derived from the TC log").
///
/// Reads are not logged by the TC (they need no redo), so they carry a
/// separate per-TC ticket that participates in reply correlation but not
/// in idempotence.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RequestId {
    /// A logged, state-changing operation; the id is the TC-log LSN.
    Op(Lsn),
    /// An unlogged read; the id is a per-TC monotonic ticket.
    Read(u64),
}

impl RequestId {
    /// The LSN, if this request is a logged operation.
    #[inline]
    pub fn lsn(self) -> Option<Lsn> {
        match self {
            RequestId::Op(l) => Some(l),
            RequestId::Read(_) => None,
        }
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestId::Op(l) => write!(f, "op:{l}"),
            RequestId::Read(t) => write!(f, "rd:{t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_id_null() {
        assert!(PageId::NULL.is_null());
        assert!(!PageId(3).is_null());
    }

    #[test]
    fn request_id_lsn_extraction() {
        assert_eq!(RequestId::Op(Lsn(7)).lsn(), Some(Lsn(7)));
        assert_eq!(RequestId::Read(7).lsn(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(TcId(1).to_string(), "TC1");
        assert_eq!(DcId(2).to_string(), "DC2");
        assert_eq!(PageId(3).to_string(), "P3");
        assert_eq!(TableId(4).to_string(), "T4");
        assert_eq!(TxnId(5).to_string(), "X5");
        assert_eq!(SysTxnId(6).to_string(), "S6");
        assert_eq!(RequestId::Op(Lsn(8)).to_string(), "op:8");
        assert_eq!(RequestId::Read(9).to_string(), "rd:9");
    }
}
