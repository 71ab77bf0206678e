//! Canonical table hashing for bank checkpoints.
//!
//! \[BANK1\]/\[BANK2\] compare routing/pricing tables between principals and
//! checkers by hash. For the comparison to be meaningful, two semantically
//! equal tables must hash identically regardless of which node produced
//! them — so this hasher defines a canonical, self-delimiting encoding:
//! every field is written with a fixed-width tag and length, and callers
//! feed table rows in a canonical (sorted) order.

use crate::sha256::{Digest, Sha256};
use std::fmt;

/// Streaming canonical hasher for structured table data.
///
/// Each `put_*` call writes a 1-byte type tag followed by fixed-width
/// big-endian bytes, making the encoding prefix-free: no two distinct
/// field sequences share an encoding.
///
/// # Example
///
/// ```
/// use specfaith_crypto::tablehash::TableHasher;
///
/// let mut a = TableHasher::new("routing-table");
/// a.put_u32(1).put_u64(20).put_i64(-3);
/// let mut b = TableHasher::new("routing-table");
/// b.put_u32(1).put_u64(20).put_i64(-3);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Clone)]
pub struct TableHasher {
    inner: Sha256,
    /// Encoded fields not yet passed to `inner`: a row is a handful of
    /// few-byte fields, and one `update` per full buffer costs far less
    /// than two per field. The hashed byte stream is the same.
    staged: [u8; STAGE],
    staged_len: usize,
}

/// Size of [`TableHasher`]'s staging buffer: four SHA-256 blocks.
const STAGE: usize = 256;

impl fmt::Debug for TableHasher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TableHasher")
            .field("inner", &self.inner)
            .field("staged_len", &self.staged_len)
            .finish()
    }
}

impl TableHasher {
    /// Starts a hash for a table with the given domain label.
    ///
    /// The label separates hash domains, so a routing table and a pricing
    /// table with coincidentally identical bytes never collide.
    pub fn new(domain: &str) -> Self {
        let mut inner = Sha256::new();
        inner.update(&(domain.len() as u64).to_be_bytes());
        inner.update(domain.as_bytes());
        TableHasher {
            inner,
            staged: [0; STAGE],
            staged_len: 0,
        }
    }

    /// Appends `bytes` to the hashed stream.
    fn stage(&mut self, bytes: &[u8]) {
        if bytes.len() > STAGE - self.staged_len {
            self.inner.update(&self.staged[..self.staged_len]);
            self.staged_len = 0;
            if bytes.len() >= STAGE {
                self.inner.update(bytes);
                return;
            }
        }
        self.staged[self.staged_len..self.staged_len + bytes.len()].copy_from_slice(bytes);
        self.staged_len += bytes.len();
    }

    /// Feeds a `u32` field.
    pub fn put_u32(&mut self, value: u32) -> &mut Self {
        self.stage(&[0x01]);
        self.stage(&value.to_be_bytes());
        self
    }

    /// Feeds a `u64` field.
    pub fn put_u64(&mut self, value: u64) -> &mut Self {
        self.stage(&[0x02]);
        self.stage(&value.to_be_bytes());
        self
    }

    /// Feeds an `i64` field.
    pub fn put_i64(&mut self, value: i64) -> &mut Self {
        self.stage(&[0x03]);
        self.stage(&value.to_be_bytes());
        self
    }

    /// Feeds a length-prefixed byte string.
    pub fn put_bytes(&mut self, value: &[u8]) -> &mut Self {
        self.stage(&[0x04]);
        self.stage(&(value.len() as u64).to_be_bytes());
        self.stage(value);
        self
    }

    /// Feeds a marker separating table rows.
    ///
    /// Row markers keep `[row(a,b)][row(c)]` distinct from
    /// `[row(a)][row(b,c)]`.
    pub fn row_boundary(&mut self) -> &mut Self {
        self.stage(&[0x05]);
        self
    }

    /// Finishes and returns the table digest.
    pub fn finish(mut self) -> Digest {
        self.inner.update(&self.staged[..self.staged_len]);
        self.inner.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_sequences_hash_equal() {
        let mut a = TableHasher::new("t");
        a.put_u32(7).row_boundary().put_i64(-1);
        let mut b = TableHasher::new("t");
        b.put_u32(7).row_boundary().put_i64(-1);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn digest_is_sha256_of_the_field_encoding() {
        // Enough rows to cross the staging buffer many times, with byte
        // strings shorter than, equal to and longer than it.
        let mut hasher = TableHasher::new("t");
        let mut stream = Vec::new();
        stream.extend_from_slice(&1u64.to_be_bytes());
        stream.push(b't');
        for row in 0..300u32 {
            hasher.put_u32(row).put_u64(7).put_i64(-(row as i64));
            stream.push(0x01);
            stream.extend_from_slice(&row.to_be_bytes());
            stream.push(0x02);
            stream.extend_from_slice(&7u64.to_be_bytes());
            stream.push(0x03);
            stream.extend_from_slice(&(-(row as i64)).to_be_bytes());
            if row % 50 == 0 {
                let bytes = vec![row as u8; [3, STAGE, 2 * STAGE + 1][row as usize % 3]];
                hasher.put_bytes(&bytes);
                stream.push(0x04);
                stream.extend_from_slice(&(bytes.len() as u64).to_be_bytes());
                stream.extend_from_slice(&bytes);
            }
            hasher.row_boundary();
            stream.push(0x05);
        }
        assert_eq!(hasher.finish(), crate::sha256::sha256(&stream));
    }

    #[test]
    fn domains_separate() {
        let mut a = TableHasher::new("routing");
        a.put_u32(7);
        let mut b = TableHasher::new("pricing");
        b.put_u32(7);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn type_tags_prevent_cross_width_collisions() {
        // u32(0) followed by u32(1) must differ from u64(1).
        let mut a = TableHasher::new("t");
        a.put_u32(0).put_u32(1);
        let mut b = TableHasher::new("t");
        b.put_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn row_boundaries_disambiguate_grouping() {
        let mut a = TableHasher::new("t");
        a.put_u32(1).put_u32(2).row_boundary().put_u32(3);
        let mut b = TableHasher::new("t");
        b.put_u32(1).row_boundary().put_u32(2).put_u32(3);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn byte_strings_are_length_prefixed() {
        let mut a = TableHasher::new("t");
        a.put_bytes(b"ab").put_bytes(b"c");
        let mut b = TableHasher::new("t");
        b.put_bytes(b"a").put_bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn domain_label_is_length_prefixed() {
        // "ab" + field vs "a" + different-first-field must not collide via
        // label/field boundary ambiguity.
        let mut a = TableHasher::new("ab");
        a.put_bytes(b"");
        let mut b = TableHasher::new("a");
        b.put_bytes(b"b");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn single_field_change_changes_digest() {
        let mut a = TableHasher::new("t");
        a.put_u64(100).put_i64(5);
        let mut b = TableHasher::new("t");
        b.put_u64(100).put_i64(6);
        assert_ne!(a.finish(), b.finish());
    }
}
