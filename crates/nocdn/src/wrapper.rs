//! Wrapper-page generation.
//!
//! §IV-B / Fig. 2: on a page request, "the content provider returns a
//! *wrapper page*, which (a) lists the IP address of a peer from which to
//! fetch the container object, (b) maps the URL for each recursively
//! embedded object to the IP address of a peer …, (c) includes a
//! cryptographic hash of all page objects, as well as a unique
//! short-term secret key for each peer listed …, and (d) includes a
//! JavaScript loader script."
//!
//! The origin thus serves only this small page; everything heavy comes
//! from peers — the offload experiment's core mechanism.

use crate::accounting::Accounting;
use crate::origin::ContentProvider;
use crate::par;
use crate::peer::PeerId;
use crate::puzzle::PuzzleSpec;
use hpop_crypto::sha256::{Digest, Sha256};
use std::collections::BTreeMap;

/// Approximate serialized size of the loader script. §IV-B notes it is
/// "generic and can be cached by the browsers", so it is excluded from
/// per-request wrapper bytes after the first visit.
pub const LOADER_SCRIPT_BYTES: u64 = 4_096;

/// The wrapper page for one client's page view.
#[derive(Clone, Debug)]
pub struct WrapperPage {
    /// The page's container path.
    pub page: String,
    /// The requesting client (the provider's session id for it).
    pub client: u64,
    /// Object path → peer assigned to serve it. The container object is
    /// in here too (§IV-B item (a)).
    pub object_map: BTreeMap<String, PeerId>,
    /// Object path → SHA-256 of the authentic bytes (§IV-B item (c)).
    pub hashes: BTreeMap<String, Digest>,
    /// Peer → short-term secret key for usage-record signing.
    pub peer_keys: BTreeMap<PeerId, [u8; 32]>,
    /// The provider's accountability-puzzle policy for this epoch, when
    /// the defense is on: peers must attach a proof of serving to every
    /// usage record (see [`crate::puzzle`]).
    pub puzzle: Option<PuzzleSpec>,
    /// Whether the (cacheable) loader script was included this time.
    pub includes_loader: bool,
}

impl WrapperPage {
    /// Generates a wrapper page at the provider.
    ///
    /// `assignments` maps each page object to the peer chosen by the
    /// selection policy; `accounting` records each peer's issued work so
    /// later usage claims can be cross-checked; the wrapper's wire size
    /// is charged to the origin's counters.
    ///
    /// # Panics
    ///
    /// Panics if the page is unknown or an assignment is missing — both
    /// provider-side bugs, not runtime conditions.
    pub fn generate(
        provider: &mut ContentProvider,
        page_path: &str,
        client: u64,
        assignments: &BTreeMap<String, PeerId>,
        accounting: &mut Accounting,
        master_key: &[u8; 32],
        first_visit: bool,
    ) -> WrapperPage {
        let page = provider
            .page(page_path)
            .unwrap_or_else(|| panic!("unknown page {page_path}"))
            .clone();
        // A page's first view hashes its objects, spread over the
        // workers; every later view reads the digests back.
        let fresh = provider.unhashed(page.objects());
        let digests = par::map(
            par::workers(),
            &fresh,
            |(_, body)| body.len(),
            |(_, body)| Sha256::digest(body),
        );
        for (&(path, _), digest) in fresh.iter().zip(digests) {
            provider.record_digest(path, digest);
        }
        let mut object_map = BTreeMap::new();
        let mut hashes = BTreeMap::new();
        let mut per_peer_bytes: BTreeMap<PeerId, u64> = BTreeMap::new();
        let mut per_peer_objects: BTreeMap<PeerId, Vec<String>> = BTreeMap::new();
        for obj in page.objects() {
            let peer = *assignments
                .get(obj)
                .unwrap_or_else(|| panic!("no peer assigned for {obj}"));
            let bytes = provider
                .peek_object(obj)
                .unwrap_or_else(|| panic!("page object {obj} missing"))
                .len() as u64;
            let digest = provider.object_digest(obj).expect("object seen above");
            object_map.insert(obj.to_owned(), peer);
            hashes.insert(obj.to_owned(), digest);
            *per_peer_bytes.entry(peer).or_default() += bytes;
            per_peer_objects
                .entry(peer)
                .or_default()
                .push(obj.to_owned());
        }
        let mut peer_keys = BTreeMap::new();
        for (&peer, &max_bytes) in &per_peer_bytes {
            let key = accounting.issue_with_objects(
                client,
                peer,
                max_bytes,
                &per_peer_objects[&peer],
                master_key,
            );
            peer_keys.insert(peer, key);
        }
        let wrapper = WrapperPage {
            page: page_path.to_owned(),
            client,
            object_map,
            hashes,
            peer_keys,
            puzzle: accounting.puzzle_spec().copied(),
            includes_loader: first_visit,
        };
        provider.count_wrapper(wrapper.wire_size());
        wrapper
    }

    /// Approximate wire size: per-object map + hash entries, per-peer
    /// keys, plus the loader script on first visit.
    pub fn wire_size(&self) -> u64 {
        let per_object: u64 = self
            .object_map
            .keys()
            .map(|p| p.len() as u64 + 8 + 32) // path + peer addr + hash
            .sum();
        let per_peer = self.peer_keys.len() as u64 * 40; // addr + key
        let base = 256; // headers, markup
        base + per_object
            + per_peer
            + if self.includes_loader {
                LOADER_SCRIPT_BYTES
            } else {
                0
            }
    }

    /// The peers this wrapper references.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.peer_keys.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::PageSpec;

    const MASTER: [u8; 32] = [42u8; 32];

    fn provider() -> ContentProvider {
        let mut p = ContentProvider::new("news.example");
        p.put_object("/index.html", vec![b'h'; 2_000]);
        p.put_object("/style.css", vec![b'c'; 10_000]);
        p.put_object("/hero.jpg", vec![b'j'; 500_000]);
        p.put_page(PageSpec {
            container: "/index.html".into(),
            embedded: vec!["/style.css".into(), "/hero.jpg".into()],
        });
        p
    }

    fn assign_all(peer: PeerId) -> BTreeMap<String, PeerId> {
        ["/index.html", "/style.css", "/hero.jpg"]
            .iter()
            .map(|s| (s.to_string(), peer))
            .collect()
    }

    #[test]
    fn wrapper_carries_hashes_and_keys() {
        let mut p = provider();
        let mut acct = Accounting::new();
        let w = WrapperPage::generate(
            &mut p,
            "/index.html",
            1,
            &assign_all(PeerId(3)),
            &mut acct,
            &MASTER,
            true,
        );
        assert_eq!(w.object_map.len(), 3);
        assert_eq!(w.hashes.len(), 3);
        assert_eq!(w.peer_keys.len(), 1);
        assert!(w.peer_keys.contains_key(&PeerId(3)));
        // The hash matches the authentic object.
        let expect = Sha256::digest(p.peek_object("/hero.jpg").unwrap());
        assert_eq!(w.hashes["/hero.jpg"], expect);
        // A second view reads the hashes back; a republished object
        // is hashed afresh, the untouched ones are not disturbed.
        p.put_object("/hero.jpg", vec![b'k'; 400_000]);
        let again = WrapperPage::generate(
            &mut p,
            "/index.html",
            2,
            &assign_all(PeerId(3)),
            &mut acct,
            &MASTER,
            false,
        );
        assert_eq!(again.hashes["/hero.jpg"], Sha256::digest(&[b'k'; 400_000]));
        assert_eq!(again.hashes["/style.css"], w.hashes["/style.css"]);
        assert_eq!(again.hashes["/index.html"], w.hashes["/index.html"]);
    }

    #[test]
    fn wrapper_is_tiny_compared_to_page() {
        let mut p = provider();
        let mut acct = Accounting::new();
        let w = WrapperPage::generate(
            &mut p,
            "/index.html",
            1,
            &assign_all(PeerId(0)),
            &mut acct,
            &MASTER,
            false,
        );
        let page_bytes = p.page_bytes("/index.html").unwrap();
        assert!(
            w.wire_size() * 100 < page_bytes,
            "wrapper {} vs page {page_bytes}",
            w.wire_size()
        );
        // The origin was charged only the wrapper.
        assert_eq!(p.wrapper_bytes, w.wire_size());
        assert_eq!(p.origin_bytes, 0);
    }

    #[test]
    fn loader_script_only_on_first_visit() {
        let mut p = provider();
        let mut acct = Accounting::new();
        let first = WrapperPage::generate(
            &mut p,
            "/index.html",
            1,
            &assign_all(PeerId(0)),
            &mut acct,
            &MASTER,
            true,
        );
        let later = WrapperPage::generate(
            &mut p,
            "/index.html",
            1,
            &assign_all(PeerId(0)),
            &mut acct,
            &MASTER,
            false,
        );
        assert_eq!(first.wire_size() - later.wire_size(), LOADER_SCRIPT_BYTES);
    }

    #[test]
    fn issued_work_matches_mapped_bytes() {
        let mut p = provider();
        let mut acct = Accounting::new();
        // Split objects across two peers.
        let mut assignments = assign_all(PeerId(1));
        assignments.insert("/hero.jpg".into(), PeerId(2));
        let w = WrapperPage::generate(
            &mut p,
            "/index.html",
            7,
            &assignments,
            &mut acct,
            &MASTER,
            false,
        );
        assert_eq!(w.peers().count(), 2);
        // Peer 2 was issued exactly the hero image's 500 KB; a claim
        // above that is rejected downstream (tested in accounting).
        use crate::accounting::UsageRecord;
        use hpop_crypto::nonce::Nonce;
        let key = w.peer_keys[&PeerId(2)];
        let ok = UsageRecord::sign(&key, PeerId(2), 7, 500_000, 1, Nonce(1));
        assert!(acct.settle(&ok).is_ok());
        let over = UsageRecord::sign(&key, PeerId(2), 7, 500_001, 1, Nonce(2));
        assert!(acct.settle(&over).is_err());
    }

    #[test]
    #[should_panic(expected = "unknown page")]
    fn unknown_page_panics() {
        let mut p = provider();
        let mut acct = Accounting::new();
        WrapperPage::generate(
            &mut p,
            "/ghost.html",
            1,
            &BTreeMap::new(),
            &mut acct,
            &MASTER,
            true,
        );
    }
}
