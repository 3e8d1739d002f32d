//! The Unique Sequential Identifier Generator (USIG).
//!
//! MinBFT tolerates `f = (N-1)/2` hybrid faults (instead of PBFT's
//! `(N-1)/3`) by equipping every replica with a small trusted service that
//! assigns strictly monotonic counter values to outgoing messages and can
//! certify the assignment. A compromised replica can delay or drop messages
//! but cannot equivocate: it cannot assign the same counter value to two
//! different messages, and receivers reject replays. In the paper's
//! architecture this service lives in the privileged domain (the
//! virtualization layer); here it is a struct that the protocol code treats
//! as tamperproof — Byzantine behaviours injected by the fault injector never
//! bypass it.

use crate::crypto::{combine, digest, Digest, KeyPair, Signature};
use crate::NodeId;

/// A certified unique identifier: the counter value and a signature binding
/// it to the message digest.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct UniqueIdentifier {
    /// The replica that created the identifier.
    pub replica: NodeId,
    /// The (strictly increasing) counter value.
    pub counter: u64,
    /// Signature over `(counter, message digest)`.
    pub signature: Signature,
}

/// The trusted counter service of one replica.
#[derive(Debug, Clone)]
pub struct Usig {
    keys: KeyPair,
    counter: u64,
}

impl Usig {
    /// Creates the USIG service for a replica.
    pub fn new(keys: KeyPair) -> Self {
        Usig { keys, counter: 0 }
    }

    /// The last assigned counter value (0 if none yet).
    pub(crate) fn last_counter(&self) -> u64 {
        self.counter
    }

    /// Assigns the next counter value to a message digest and certifies it.
    pub fn create_ui(&mut self, message: Digest) -> UniqueIdentifier {
        self.counter += 1;
        let bound = bind(self.counter, message);
        UniqueIdentifier {
            replica: self.keys.node(),
            counter: self.counter,
            signature: self.keys.sign(bound),
        }
    }
}

/// Receiver-side verification state: checks signatures through the key
/// directory and rejects a counter value it has already accepted.
#[derive(Debug, Clone, Default)]
pub struct UsigVerifier {
    directory: crate::crypto::KeyDirectory,
    accepted: std::collections::HashSet<(NodeId, u64)>,
}

impl UsigVerifier {
    /// Creates a verifier over the given key directory.
    pub fn new(directory: crate::crypto::KeyDirectory) -> Self {
        UsigVerifier {
            directory,
            accepted: std::collections::HashSet::new(),
        }
    }

    /// Verifies the certificate only (signature and binding), without
    /// recording the counter as accepted.
    pub fn verify_certificate(&self, message: Digest, ui: &UniqueIdentifier) -> bool {
        ui.signature.signer == ui.replica
            && self
                .directory
                .verify(bind(ui.counter, message), &ui.signature)
    }

    /// Verifies the certificate and rejects replays of an already-accepted
    /// counter, but tolerates gaps and reordering. MinBFT's safety argument
    /// only needs non-equivocation (one counter value certifies exactly one
    /// message) and replay protection; over a jittery network, prepared
    /// messages may legitimately arrive out of order.
    pub(crate) fn accept_unordered(&mut self, message: Digest, ui: &UniqueIdentifier) -> bool {
        if !self.verify_certificate(message, ui) {
            return false;
        }
        self.accepted.insert((ui.replica, ui.counter))
    }
}

fn bind(counter: u64, message: Digest) -> Digest {
    combine(digest(&counter.to_le_bytes()), message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::KeyDirectory;

    fn setup() -> (Usig, UsigVerifier) {
        let keys = KeyPair::derive(7, 123);
        let mut directory = KeyDirectory::new();
        directory.register(&keys);
        (Usig::new(keys), UsigVerifier::new(directory))
    }

    #[test]
    fn counters_are_strictly_monotonic() {
        let (mut usig, _) = setup();
        let m = digest(b"m1");
        let ui1 = usig.create_ui(m);
        let ui2 = usig.create_ui(m);
        assert_eq!(ui1.counter, 1);
        assert_eq!(ui2.counter, 2);
        assert_eq!(usig.last_counter(), 2);
    }

    #[test]
    fn equivocation_is_detected() {
        // A Byzantine replica cannot bind one counter to two different
        // messages: the second message fails certificate verification because
        // the signature binds the original digest.
        let (mut usig, mut verifier) = setup();
        let m1 = digest(b"value A");
        let m2 = digest(b"value B");
        let ui = usig.create_ui(m1);
        assert!(verifier.verify_certificate(m1, &ui));
        assert!(
            !verifier.verify_certificate(m2, &ui),
            "same UI must not certify a different message"
        );
        assert!(verifier.accept_unordered(m1, &ui));
        assert!(!verifier.accept_unordered(m2, &ui));
    }

    #[test]
    fn unknown_replicas_are_rejected() {
        let (_, verifier) = setup();
        let other = KeyPair::derive(99, 5);
        let mut foreign_usig = Usig::new(other);
        let m = digest(b"m");
        let ui = foreign_usig.create_ui(m);
        assert!(!verifier.verify_certificate(m, &ui));
    }

    #[test]
    fn unordered_acceptance_tolerates_gaps_but_not_replays_or_equivocation() {
        let (mut usig, mut verifier) = setup();
        let m1 = digest(b"m1");
        let m2 = digest(b"m2");
        let m3 = digest(b"m3");
        let ui1 = usig.create_ui(m1);
        let _ui2 = usig.create_ui(m2);
        let ui3 = usig.create_ui(m3);
        // Out of order and with a gap: both accepted.
        assert!(verifier.accept_unordered(m3, &ui3));
        assert!(verifier.accept_unordered(m1, &ui1));
        // Replay of an accepted counter is rejected.
        assert!(!verifier.accept_unordered(m1, &ui1));
        // Equivocation (same UI, different message) is rejected.
        assert!(!verifier.accept_unordered(m2, &ui1));
    }
}
