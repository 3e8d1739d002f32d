//! Simulated cryptographic primitives.
//!
//! The paper's testbed uses RSA-1024 signatures for its USIG service and
//! authenticated channels (Appendix E). Cryptographic strength is irrelevant
//! to the evaluation — what matters is the *interface*: replicas cannot forge
//! each other's signatures (assumption (a) of Proposition 1). This module
//! provides a keyed-digest signature scheme over a 64-bit FNV-1a hash that
//! preserves exactly that interface within the simulation: verification
//! requires the signer's secret, which other simulated nodes never see.

use crate::NodeId;

/// A 64-bit message digest (FNV-1a). Ordered, so maps keyed by a digest
/// iterate in one order on every run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct Digest(pub u64);

impl Digest {
    /// The greatest digest: `(sequence, Digest::MAX)` bounds every key of
    /// one sequence from above.
    pub(crate) const MAX: Digest = Digest(u64::MAX);
}

/// Computes the FNV-1a digest of a byte string (`const`, so fixed inputs
/// are hashed at compile time).
pub const fn digest(bytes: &[u8]) -> Digest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut index = 0;
    while index < bytes.len() {
        hash ^= bytes[index] as u64;
        hash = hash.wrapping_mul(PRIME);
        index += 1;
    }
    Digest(hash)
}

/// Combines two digests (used for chaining message fields).
pub(crate) fn combine(a: Digest, b: Digest) -> Digest {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&a.0.to_le_bytes());
    bytes[8..].copy_from_slice(&b.0.to_le_bytes());
    digest(&bytes)
}

/// A simulated signature: a keyed digest bound to the signer's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Signature {
    /// The claimed signer.
    pub signer: NodeId,
    /// The keyed digest.
    pub tag: u64,
}

/// A signing key pair. The secret is only known to the owning node; within
/// the simulation other nodes only ever hold [`Signature`] values, so
/// signatures cannot be forged (matching assumption (a) of Proposition 1).
#[derive(Debug, Clone)]
pub struct KeyPair {
    node: NodeId,
    secret: u64,
}

impl KeyPair {
    /// Derives a key pair for a node from a seed (deterministic, so tests are
    /// reproducible).
    pub fn derive(node: NodeId, seed: u64) -> Self {
        let mut bytes = [0u8; 12];
        bytes[..4].copy_from_slice(&node.to_le_bytes());
        bytes[4..].copy_from_slice(&seed.to_le_bytes());
        let secret = digest(&bytes).0 ^ 0x9e37_79b9_7f4a_7c15;
        KeyPair { node, secret }
    }

    /// The node this key pair belongs to.
    pub(crate) fn node(&self) -> NodeId {
        self.node
    }

    /// Signs a message digest.
    pub(crate) fn sign(&self, message: Digest) -> Signature {
        Signature {
            signer: self.node,
            tag: keyed_tag(self.secret, self.node, message),
        }
    }
}

/// A verifier directory holding the (simulated) public keys of all nodes.
///
/// In the simulation the "public key" is the same secret used for signing —
/// the crucial property is that *nodes in the protocol* never access this
/// directory to sign on behalf of others; only the network layer verifies.
#[derive(Debug, Clone, Default)]
pub struct KeyDirectory {
    secrets: std::collections::BTreeMap<NodeId, u64>,
}

impl KeyDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        KeyDirectory::default()
    }

    /// Registers a node's key pair.
    pub fn register(&mut self, keys: &KeyPair) {
        self.secrets.insert(keys.node, keys.secret);
    }

    /// Verifies that `signature` is a valid signature of `message` by the
    /// signer it claims.
    pub(crate) fn verify(&self, message: Digest, signature: &Signature) -> bool {
        match self.secrets.get(&signature.signer) {
            Some(&secret) => signature.tag == keyed_tag(secret, signature.signer, message),
            None => false,
        }
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.secrets.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.secrets.is_empty()
    }
}

fn keyed_tag(secret: u64, node: NodeId, message: Digest) -> u64 {
    let mut bytes = [0u8; 20];
    bytes[..8].copy_from_slice(&secret.to_le_bytes());
    bytes[8..12].copy_from_slice(&node.to_le_bytes());
    bytes[12..].copy_from_slice(&message.0.to_le_bytes());
    digest(&bytes).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_deterministic_and_distinguish_inputs() {
        assert_eq!(digest(b"hello"), digest(b"hello"));
        assert_ne!(digest(b"hello"), digest(b"hellp"));
        assert_ne!(digest(b""), digest(b"x"));
        assert_ne!(
            combine(digest(b"a"), digest(b"b")),
            combine(digest(b"b"), digest(b"a"))
        );
    }

    #[test]
    fn signatures_verify_and_cannot_be_transplanted() {
        let alice = KeyPair::derive(1, 42);
        let bob = KeyPair::derive(2, 42);
        let mut directory = KeyDirectory::new();
        directory.register(&alice);
        directory.register(&bob);

        let message = digest(b"request 7");
        let signature = alice.sign(message);
        assert!(directory.verify(message, &signature));

        // A different message fails.
        assert!(!directory.verify(digest(b"request 8"), &signature));
        // Claiming a different signer fails.
        let forged = Signature {
            signer: bob.node(),
            tag: signature.tag,
        };
        assert!(!directory.verify(message, &forged));
        // Unknown signers fail.
        let unknown = Signature {
            signer: 99,
            tag: signature.tag,
        };
        assert!(!directory.verify(message, &unknown));
    }

    #[test]
    fn key_pairs_are_node_and_seed_specific() {
        let a = KeyPair::derive(1, 1);
        let b = KeyPair::derive(1, 2);
        let c = KeyPair::derive(2, 1);
        let m = digest(b"m");
        assert_ne!(a.sign(m).tag, b.sign(m).tag);
        assert_ne!(a.sign(m).tag, c.sign(m).tag);
        assert_eq!(a.node(), 1);
    }

    #[test]
    fn directory_len() {
        let mut d = KeyDirectory::new();
        assert!(d.is_empty());
        d.register(&KeyPair::derive(1, 0));
        d.register(&KeyPair::derive(2, 0));
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
    }
}
