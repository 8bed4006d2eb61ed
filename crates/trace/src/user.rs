use serde::{Deserialize, Serialize};

/// Identifier of a user in a mobility dataset.
///
/// Real user IDs are small integers assigned by the data collector;
/// pseudonyms minted for fine-grained sub-traces live in a disjoint high
/// range (see [`PseudonymFactory`]) so the two can never collide.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct UserId(u64);

impl UserId {
    /// Creates a user ID from its raw integer value.
    pub const fn new(id: u64) -> Self {
        Self(id)
    }

    /// The raw integer value.
    pub const fn as_u64(&self) -> u64 {
        self.0
    }

    /// `true` when this ID was minted by a [`PseudonymFactory`] rather than
    /// assigned to a real user.
    pub const fn is_pseudonym(&self) -> bool {
        self.0 >= PSEUDONYM_BASE
    }
}

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_pseudonym() {
            write!(f, "p{}", self.0 - PSEUDONYM_BASE)
        } else {
            write!(f, "u{}", self.0)
        }
    }
}

/// First ID of the pseudonym range. Real datasets have at most a few
/// thousand users, so 2^32 leaves no realistic chance of collision.
const PSEUDONYM_BASE: u64 = 1 << 32;

/// Mints fresh pseudonymous [`UserId`]s.
///
/// MooD's fine-grained protection publishes each protected sub-trace under
/// a **new** user ID so sub-traces "seem to come from different users"
/// (paper §3.4, `renew_Ids` in Algorithm 1). The factory is deterministic:
/// the n-th pseudonym it produces is always the same, which keeps whole
/// experiment runs reproducible.
///
/// # Examples
///
/// ```
/// use mood_trace::PseudonymFactory;
///
/// let mut factory = PseudonymFactory::new();
/// let a = factory.next_id();
/// let b = factory.next_id();
/// assert_ne!(a, b);
/// assert!(a.is_pseudonym() && b.is_pseudonym());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PseudonymFactory {
    next: u64,
}

impl PseudonymFactory {
    /// Creates a factory starting at the beginning of the pseudonym range.
    pub fn new() -> Self {
        Self {
            next: PSEUDONYM_BASE,
        }
    }

    /// Returns a fresh pseudonym, never equal to any real user ID nor to
    /// any pseudonym previously returned by this factory.
    pub fn next_id(&mut self) -> UserId {
        let id = UserId::new(self.next);
        self.next += 1;
        id
    }
}

impl Default for PseudonymFactory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_ids_are_not_pseudonyms() {
        assert!(!UserId::new(0).is_pseudonym());
        assert!(!UserId::new(530).is_pseudonym());
    }

    #[test]
    fn factory_ids_are_pseudonyms_and_unique() {
        let mut f = PseudonymFactory::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = f.next_id();
            assert!(id.is_pseudonym());
            assert!(seen.insert(id), "duplicate pseudonym");
        }
    }

    #[test]
    fn factory_is_deterministic() {
        let mut f1 = PseudonymFactory::new();
        let mut f2 = PseudonymFactory::new();
        for _ in 0..10 {
            assert_eq!(f1.next_id(), f2.next_id());
        }
    }

    #[test]
    fn display_distinguishes_pseudonyms() {
        assert_eq!(UserId::new(7).to_string(), "u7");
        let mut f = PseudonymFactory::new();
        assert_eq!(f.next_id().to_string(), "p0");
        assert_eq!(f.next_id().to_string(), "p1");
    }

    #[test]
    fn ordering_is_by_value() {
        assert!(UserId::new(1) < UserId::new(2));
    }

    #[test]
    fn serde_roundtrip() {
        let id = UserId::new(99);
        let json = serde_json::to_string(&id).unwrap();
        let back: UserId = serde_json::from_str(&json).unwrap();
        assert_eq!(id, back);
    }
}
