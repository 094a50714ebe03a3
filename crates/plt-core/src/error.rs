//! Error type shared across the PLT crates.

use std::fmt;

/// Errors that can arise while building or querying a PLT.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PltError {
    /// A transaction contained a duplicate item. Transactions are sets; the
    /// construction routines reject duplicates rather than silently deduping
    /// so that support counts cannot be skewed by malformed input.
    DuplicateItem {
        /// The offending item.
        item: u32,
    },
    /// A position vector contained a zero position. Positions are rank
    /// deltas of a strictly increasing rank sequence, so every position is
    /// at least 1.
    ZeroPosition,
    /// An empty position vector or itemset was supplied where a non-empty
    /// one is required.
    Empty,
    /// A rank sequence was not strictly increasing.
    UnsortedRanks,
    /// An item was not part of the ranking (i.e. it is infrequent or was
    /// never seen during construction).
    UnknownItem {
        /// The item that has no rank.
        item: u32,
    },
    /// A minimum support of zero was supplied. Support thresholds are
    /// absolute counts and must be at least 1.
    ZeroMinSupport,
    /// A removal referenced a transaction whose vector is not stored (it
    /// was never inserted, or already removed).
    NotPresent,
    /// A query expression was rejected by the query layer (plt-query):
    /// a lexical/syntax error, a semantic error (wrong field for the
    /// query kind, unknown item), or a resource limit (overlong
    /// expression, predicate nesting too deep). The message names the
    /// offending token or limit.
    Query {
        /// Human-readable description of the rejection.
        message: String,
    },
    /// A mining result violated the anti-monotone property: a subset of a
    /// frequent itemset was missing, or had a smaller support than its
    /// superset. Produced by
    /// [`MiningResult::check_anti_monotone`](crate::miner::MiningResult::check_anti_monotone);
    /// a correct miner never produces such a family.
    AntiMonotoneViolation {
        /// The offending subset.
        subset: crate::item::Itemset,
        /// The frequent superset whose subset is missing or undercounted.
        superset: crate::item::Itemset,
        /// Support of the subset, `None` when it is missing entirely.
        subset_support: Option<u64>,
        /// Support of the superset.
        superset_support: u64,
    },
}

impl fmt::Display for PltError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PltError::DuplicateItem { item } => {
                write!(f, "transaction contains duplicate item {item}")
            }
            PltError::ZeroPosition => write!(f, "position vectors must hold positions >= 1"),
            PltError::Empty => write!(f, "empty itemset or position vector"),
            PltError::UnsortedRanks => write!(f, "rank sequence must be strictly increasing"),
            PltError::UnknownItem { item } => write!(f, "item {item} has no rank"),
            PltError::ZeroMinSupport => write!(f, "minimum support must be at least 1"),
            PltError::NotPresent => write!(f, "transaction vector is not stored in the PLT"),
            PltError::Query { message } => write!(f, "query: {message}"),
            PltError::AntiMonotoneViolation {
                subset,
                superset,
                subset_support,
                superset_support,
            } => match subset_support {
                None => write!(f, "{subset} missing though superset {superset} is frequent"),
                Some(s) => write!(
                    f,
                    "{subset} has support {s} < superset {superset}'s {superset_support}"
                ),
            },
        }
    }
}

impl std::error::Error for PltError {}

/// Convenience alias used throughout the PLT crates.
pub type Result<T> = std::result::Result<T, PltError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(PltError::DuplicateItem { item: 7 }
            .to_string()
            .contains('7'));
        assert!(PltError::UnknownItem { item: 9 }.to_string().contains('9'));
        assert!(!PltError::ZeroPosition.to_string().is_empty());
        assert!(!PltError::Empty.to_string().is_empty());
        assert!(!PltError::UnsortedRanks.to_string().is_empty());
        assert!(!PltError::ZeroMinSupport.to_string().is_empty());
        let q = PltError::Query {
            message: "unexpected token `}`".into(),
        };
        assert!(q.to_string().starts_with("query: "));
        assert!(q.to_string().contains("unexpected token"));
        let missing = PltError::AntiMonotoneViolation {
            subset: crate::item::Itemset::from([1u32, 2]),
            superset: crate::item::Itemset::from([1u32, 2, 3]),
            subset_support: None,
            superset_support: 4,
        };
        assert!(missing.to_string().contains("missing"));
        let undercount = PltError::AntiMonotoneViolation {
            subset: crate::item::Itemset::from([1u32]),
            superset: crate::item::Itemset::from([1u32, 2]),
            subset_support: Some(2),
            superset_support: 4,
        };
        assert!(undercount.to_string().contains("support 2"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_e: E) {}
        assert_err(PltError::Empty);
    }
}
