//! [`Body`]: bytes held as the verified pieces they arrived in.
//!
//! An object is one [`Bytes`] from the moment the provider publishes
//! it: a peer caches and serves clones of it, a range request is a
//! slice of it, and only a corrupting peer's copy is a new buffer. A
//! body made of several objects or chunks keeps those pieces in order
//! rather than copying them into one buffer. The loader's page, a
//! chunked fetch's object and the objects a usage record claims are
//! each a `Body`, and the accountability puzzle walks one in place.

use bytes::Bytes;
use hpop_crypto::puzzle::Parts;

/// Bytes as an ordered list of shared pieces. Clones share the pieces.
#[derive(Clone, Debug, Default)]
pub struct Body {
    pieces: Vec<Bytes>,
    len: usize,
}

impl Body {
    /// An empty body with room for `n` pieces.
    pub(crate) fn with_capacity(n: usize) -> Body {
        Body {
            pieces: Vec::with_capacity(n),
            len: 0,
        }
    }

    /// Appends `piece` to the end.
    pub(crate) fn push(&mut self, piece: Bytes) {
        self.len += piece.len();
        self.pieces.push(piece);
    }

    /// Length in bytes, all pieces together.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the body has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies the bytes into one contiguous `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for piece in &self.pieces {
            out.extend_from_slice(piece);
        }
        out
    }

    /// True when the body holds `want` starting at byte `at`.
    pub(crate) fn matches_at(&self, at: usize, want: &[u8]) -> bool {
        let end = at + want.len();
        if end > self.len {
            return false;
        }
        let mut rest = want;
        self.parts_in(at, end).all(|piece| {
            let (head, tail) = rest.split_at(piece.len());
            rest = tail;
            head == piece
        })
    }
}

impl From<Bytes> for Body {
    fn from(piece: Bytes) -> Body {
        Body {
            len: piece.len(),
            pieces: vec![piece],
        }
    }
}

impl FromIterator<Bytes> for Body {
    fn from_iter<I: IntoIterator<Item = Bytes>>(iter: I) -> Body {
        let mut body = Body::default();
        for piece in iter {
            body.push(piece);
        }
        body
    }
}

impl Parts for Body {
    fn parts(&self) -> impl Iterator<Item = &[u8]> {
        self.pieces.iter().map(|piece| &piece[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(bytes: &[u8], cuts: &[usize]) -> Body {
        let whole = Bytes::copy_from_slice(bytes);
        let mut at = 0;
        let mut body = Body::default();
        for cut in cuts.iter().copied().chain([bytes.len()]) {
            body.push(whole.slice(at..cut));
            at = cut;
        }
        body
    }

    #[test]
    fn pieces_read_back_as_one_run_of_bytes() {
        let bytes: Vec<u8> = (0..100u8).collect();
        let body = split(&bytes, &[0, 10, 10, 55, 99]);
        assert_eq!(body.len(), 100);
        assert_eq!(body.parts().count(), 6);
        assert_eq!(body.to_vec(), bytes);
        assert!(body.matches_at(5, &bytes[5..60]));
        assert!(body.matches_at(0, &bytes));
        assert!(body.matches_at(100, &[]));
        assert!(!body.matches_at(5, &bytes[6..61]));
        assert!(!body.matches_at(90, &bytes[89..]), "runs past the end");
        assert!(Body::default().is_empty());
    }
}
