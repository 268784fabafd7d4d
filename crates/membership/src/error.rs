use std::fmt;

use pmcast_addr::{AddrError, Address};

/// Errors produced by membership operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MembershipError {
    /// The address is not valid for the group's address space.
    InvalidAddress(AddrError),
    /// The address is already a member of the group.
    AlreadyMember(Address),
    /// The address is not a member of the group.
    NotAMember(Address),
}

impl fmt::Display for MembershipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MembershipError::InvalidAddress(e) => write!(f, "invalid address: {e}"),
            MembershipError::AlreadyMember(a) => write!(f, "process {a} is already a member"),
            MembershipError::NotAMember(a) => write!(f, "process {a} is not a member"),
        }
    }
}

impl std::error::Error for MembershipError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MembershipError::InvalidAddress(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AddrError> for MembershipError {
    fn from(e: AddrError) -> Self {
        MembershipError::InvalidAddress(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let inner = AddrError::DepthMismatch {
            found: 2,
            expected: 3,
        };
        let e = MembershipError::from(inner.clone());
        assert!(e.to_string().contains("invalid address"));
        assert!(e.source().is_some());

        let addr: Address = "1.2.3".parse().unwrap();
        for e in [
            MembershipError::AlreadyMember(addr.clone()),
            MembershipError::NotAMember(addr),
        ] {
            assert!(!e.to_string().is_empty());
            assert!(e.source().is_none());
        }
    }
}
