//! One vote tally for every MinBFT quorum: the client's matching replies,
//! the COMMIT votes, the checkpoint announcements and the view-change
//! ballots are each a [`Votes`], and each quorum size is one named function
//! on [`super::ProtocolParams`]. A step function casts, then compares
//! [`Votes::count`] with its quorum.

use crate::NodeId;
use std::collections::BTreeMap;
use std::fmt;

/// Per key, the latest payload of each voter, on ordered containers. A
/// voter that casts again for a key replaces its earlier payload and still
/// counts once; with `P = ()` a cast is an idempotent set insert.
pub(super) struct Votes<K, P = ()> {
    ballots: BTreeMap<K, BTreeMap<NodeId, P>>,
}

impl<K: Ord + Copy, P> Votes<K, P> {
    pub(super) const fn new() -> Self {
        let ballots = BTreeMap::new();
        Votes { ballots }
    }

    /// Records `voter`'s `payload` for `key`, replacing its earlier one.
    pub(super) fn cast(&mut self, key: K, voter: NodeId, payload: P) {
        self.ballots.entry(key).or_default().insert(voter, payload);
    }

    /// The distinct voters for `key`.
    pub(super) fn count(&self, key: K) -> usize {
        self.ballots.get(&key).map_or(0, BTreeMap::len)
    }

    /// The latest payload of each voter for `key`, in voter order.
    pub(super) fn ballot(&self, key: K) -> impl Iterator<Item = &P> {
        self.ballots
            .get(&key)
            .into_iter()
            .flat_map(BTreeMap::values)
    }

    /// The highest key anyone voted for.
    pub(super) fn highest_key(&self) -> Option<K> {
        self.ballots.last_key_value().map(|(&key, _)| key)
    }

    /// The lowest key with at least `quorum` voters.
    pub(super) fn key_reaching(&self, quorum: usize) -> Option<K> {
        (self.ballots.iter()).find_map(|(&key, voters)| (voters.len() >= quorum).then_some(key))
    }

    /// Drops every key up to and including `key`.
    pub(super) fn prune_through(&mut self, key: K) {
        let mut kept = self.ballots.split_off(&key);
        kept.remove(&key);
        self.ballots = kept;
    }

    pub(super) fn clear(&mut self) {
        self.ballots.clear();
    }

    /// The keys holding at least one vote.
    pub(super) fn len(&self) -> usize {
        self.ballots.len()
    }
}

/// The count per key, in key order (payloads can be whole certificate
/// reports).
impl<K: fmt::Debug, P> fmt::Debug for Votes<K, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let counts = (self.ballots.iter()).map(|(key, voters)| (key, voters.len()));
        f.debug_map().entries(counts).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minbft::ProtocolParams;

    /// Four replicas: a reply quorum of two.
    const N: usize = 4;

    #[test]
    fn f_plus_one_distinct_voters_on_one_key_reach_the_reply_quorum() {
        let mut votes: Votes<u64> = Votes::new();
        votes.cast(7, 0, ());
        assert_eq!(votes.key_reaching(ProtocolParams::reply_quorum(N)), None);
        votes.cast(7, 2, ());
        assert_eq!(votes.count(7), 2);
        assert_eq!(votes.key_reaching(ProtocolParams::reply_quorum(N)), Some(7));
    }

    #[test]
    fn a_repeated_voter_counts_once() {
        let mut votes: Votes<u64> = Votes::new();
        for _ in 0..3 {
            votes.cast(7, 1, ());
        }
        assert_eq!((votes.count(7), votes.len()), (1, 1));
        assert_eq!(votes.key_reaching(ProtocolParams::reply_quorum(N)), None);
    }

    #[test]
    fn votes_split_across_keys_count_apart() {
        let mut votes: Votes<u64> = Votes::new();
        votes.cast(7, 0, ());
        votes.cast(8, 1, ());
        assert_eq!((votes.count(7), votes.count(8), votes.count(9)), (1, 1, 0));
        assert_eq!(votes.key_reaching(ProtocolParams::reply_quorum(N)), None);
        // The third vote breaks the tie.
        votes.cast(8, 2, ());
        assert_eq!(votes.key_reaching(ProtocolParams::reply_quorum(N)), Some(8));
    }

    #[test]
    fn a_recast_replaces_the_payload_and_counts_once() {
        let mut votes: Votes<u64, u64> = Votes::new();
        votes.cast(3, 1, 10);
        votes.cast(3, 2, 20);
        votes.cast(3, 1, 30);
        assert_eq!(votes.count(3), 2);
        assert_eq!(votes.ballot(3).copied().collect::<Vec<_>>(), [30, 20]);
        assert_eq!(votes.ballot(4).count(), 0);
    }

    #[test]
    fn prune_through_drops_the_key_and_every_key_below() {
        let mut votes: Votes<(u64, u64)> = Votes::new();
        for key in [(1, 5), (2, 0), (2, u64::MAX), (3, 0)] {
            votes.cast(key, 0, ());
        }
        assert_eq!(votes.highest_key(), Some((3, 0)));
        votes.prune_through((2, u64::MAX));
        assert_eq!((votes.len(), votes.count((3, 0))), (1, 1));
        votes.prune_through((9, 0));
        assert_eq!((votes.len(), votes.highest_key()), (0, None));
        votes.cast((1, 0), 0, ());
        votes.clear();
        assert_eq!(votes.len(), 0);
        assert_eq!(format!("{votes:?}"), "{}");
    }
}
