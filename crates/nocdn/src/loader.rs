//! The client-side loader.
//!
//! §IV-B / Fig. 2, item (d): the loader "fetches all objects from the
//! peers, verifies the objects' hashes, assembles the objects into an
//! integrated webpage and invokes the rendering function … Upon
//! finishing the page download, the script transfers a usage record to
//! each peer."
//!
//! In the paper this is plain JavaScript served by the provider (so it
//! works in "unmodified browsers"); here it is the same state machine as
//! a deterministic Rust type. Corrupted or missing objects fall back to
//! the origin — one malicious peer cannot poison a page, it only loses
//! its payment.

use crate::accounting::UsageRecord;
use crate::body::Body;
use crate::origin::ContentProvider;
use crate::peer::{NoCdnPeer, PeerId};
use crate::wrapper::WrapperPage;
use hpop_crypto::nonce::Nonce;
use hpop_crypto::sha256::Sha256;
use std::collections::BTreeMap;

/// What happened during one page load.
#[derive(Clone, Debug, Default)]
pub struct LoaderReport {
    /// Verified bytes obtained from peers, per peer.
    pub bytes_from_peers: BTreeMap<u32, u64>,
    /// Bytes fetched from the origin as integrity/availability fallback.
    pub bytes_from_origin: u64,
    /// Objects whose peer copy failed hash verification.
    pub corrupted: Vec<String>,
    /// Objects whose peer was unresponsive.
    pub unavailable: Vec<String>,
    /// The assembled page size (all objects verified).
    pub page_bytes: u64,
}

impl LoaderReport {
    /// True when every object verified, whatever the source.
    pub fn complete(&self) -> bool {
        self.page_bytes > 0
    }

    /// Total verified bytes obtained from peers.
    pub fn total_peer_bytes(&self) -> u64 {
        self.bytes_from_peers.values().sum()
    }
}

/// The loader state machine.
#[derive(Debug)]
pub struct PageLoader {
    client: u64,
    nonce_counter: u64,
}

impl PageLoader {
    /// A loader for one client session.
    pub fn new(client: u64) -> PageLoader {
        PageLoader {
            client,
            nonce_counter: 0,
        }
    }

    /// Executes a wrapper page: fetch every object from its assigned
    /// peer, verify hashes, fall back to the origin on corruption or
    /// unavailability, assemble, and hand signed usage records to the
    /// peers that served verified bytes.
    ///
    /// Returns the report and the page: the verified objects in path
    /// order, each the buffer it was served in.
    pub fn load(
        &mut self,
        wrapper: &WrapperPage,
        peers: &mut BTreeMap<PeerId, NoCdnPeer>,
        origin: &mut ContentProvider,
    ) -> (LoaderReport, Body) {
        let mut report = LoaderReport::default();
        let mut page = Body::with_capacity(wrapper.object_map.len());
        let host = origin.host().to_owned();
        for (path, &peer_id) in &wrapper.object_map {
            let expected = &wrapper.hashes[path];
            let from_peer = peers
                .get_mut(&peer_id)
                .and_then(|p| p.serve(&host, path, origin));
            let verified = match from_peer {
                Some(body) => {
                    if Sha256::digest(&body).ct_eq(expected) {
                        *report.bytes_from_peers.entry(peer_id.0).or_default() += body.len() as u64;
                        Some(body)
                    } else {
                        report.corrupted.push(path.clone());
                        None
                    }
                }
                None => {
                    report.unavailable.push(path.clone());
                    None
                }
            };
            // Integrity/availability fallback: the origin itself.
            let body = match verified {
                Some(b) => b,
                None => {
                    let b = origin
                        .fetch_object(path)
                        .expect("origin always has its own objects");
                    report.bytes_from_origin += b.len() as u64;
                    debug_assert!(Sha256::digest(&b).ct_eq(expected));
                    b
                }
            };
            page.push(body);
        }
        report.page_bytes = page.len() as u64;

        // Usage records: one per peer that served verified bytes, signed
        // with the provider-issued short-term key, nonce'd against replay.
        // With the puzzle policy on, the peer must first solve the
        // accountability puzzle over its issued objects — an honest peer
        // just served them, so they are in its cache.
        for (&peer_raw, &bytes) in &report.bytes_from_peers {
            let peer_id = PeerId(peer_raw);
            let Some(key) = wrapper.peer_keys.get(&peer_id) else {
                continue;
            };
            self.nonce_counter += 1;
            let issued_paths: Vec<String> = wrapper
                .object_map
                .iter()
                .filter(|&(_, &p)| p == peer_id)
                .map(|(path, _)| path.clone())
                .collect();
            let objects = issued_paths.len() as u32;
            let nonce = Nonce::from_parts(self.client, self.nonce_counter);
            let proof = wrapper.puzzle.as_ref().and_then(|spec| {
                let challenge = spec.challenge(self.client, peer_id, nonce);
                peers
                    .get_mut(&peer_id)
                    .and_then(|p| p.prove_serve(&host, &issued_paths, &challenge, &spec.params))
            });
            let record = UsageRecord::sign_with_proof(
                key,
                peer_id,
                self.client,
                bytes,
                objects,
                nonce,
                proof,
            );
            if let Some(p) = peers.get_mut(&peer_id) {
                p.accept_record(record);
            }
        }
        (report, page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::Accounting;
    use crate::origin::PageSpec;
    use crate::peer::PeerBehavior;

    const MASTER: [u8; 32] = [42u8; 32];

    fn setup(
        behaviors: &[PeerBehavior],
    ) -> (
        ContentProvider,
        BTreeMap<PeerId, NoCdnPeer>,
        Accounting,
        WrapperPage,
    ) {
        let mut p = ContentProvider::new("news.example");
        p.put_object("/index.html", vec![b'h'; 1_000]);
        p.put_object("/a.css", vec![b'a'; 10_000]);
        p.put_object("/b.jpg", vec![b'b'; 100_000]);
        p.put_page(PageSpec {
            container: "/index.html".into(),
            embedded: vec!["/a.css".into(), "/b.jpg".into()],
        });
        let peers: BTreeMap<PeerId, NoCdnPeer> = behaviors
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                (
                    PeerId(i as u32),
                    NoCdnPeer::with_behavior(PeerId(i as u32), b),
                )
            })
            .collect();
        // Round-robin object assignment across the peers.
        let objects = ["/index.html", "/a.css", "/b.jpg"];
        let assignments: BTreeMap<String, PeerId> = objects
            .iter()
            .enumerate()
            .map(|(i, o)| (o.to_string(), PeerId((i % behaviors.len()) as u32)))
            .collect();
        let mut acct = Accounting::new();
        let w = WrapperPage::generate(
            &mut p,
            "/index.html",
            1,
            &assignments,
            &mut acct,
            &MASTER,
            true,
        );
        (p, peers, acct, w)
    }

    #[test]
    fn honest_peers_serve_everything() {
        let (mut origin, mut peers, mut acct, w) = setup(&[PeerBehavior::Honest; 2]);
        let mut loader = PageLoader::new(1);
        let (report, page) = loader.load(&w, &mut peers, &mut origin);
        assert!(report.complete());
        assert_eq!(report.page_bytes, 111_000);
        assert_eq!(page.len(), 111_000);
        assert!(report.corrupted.is_empty());
        assert_eq!(report.bytes_from_origin, 0);
        assert_eq!(report.total_peer_bytes(), 111_000);
        // Records settle cleanly.
        for (_, peer) in peers.iter_mut() {
            for r in peer.upload_records() {
                acct.settle(&r).unwrap();
            }
        }
        assert_eq!(
            acct.payable_bytes(PeerId(0)) + acct.payable_bytes(PeerId(1)),
            111_000
        );
    }

    #[test]
    fn corruption_detected_and_fallback_used() {
        let (mut origin, mut peers, mut acct, w) =
            setup(&[PeerBehavior::Honest, PeerBehavior::CorruptsContent]);
        let mut loader = PageLoader::new(1);
        let (report, page) = loader.load(&w, &mut peers, &mut origin);
        // Object "/a.css" (index 1) was corrupted; detected 100%.
        assert_eq!(report.corrupted, vec!["/a.css".to_owned()]);
        assert_eq!(report.bytes_from_origin, 10_000);
        // The page still assembled correctly (user never sees bad bytes).
        assert_eq!(page.len(), 111_000);
        // The corrupting peer earns nothing for the corrupted object.
        for (_, peer) in peers.iter_mut() {
            for r in peer.upload_records() {
                let _ = acct.settle(&r);
            }
        }
        assert_eq!(acct.payable_bytes(PeerId(1)), 0);
    }

    #[test]
    fn unresponsive_peer_falls_back() {
        let (mut origin, mut peers, _acct, w) =
            setup(&[PeerBehavior::Unresponsive, PeerBehavior::Honest]);
        let mut loader = PageLoader::new(1);
        let (report, _page) = loader.load(&w, &mut peers, &mut origin);
        // Two objects were mapped to peer 0 (index.html, b.jpg).
        assert_eq!(report.unavailable.len(), 2);
        assert_eq!(report.bytes_from_origin, 101_000);
        assert!(report.complete());
    }

    #[test]
    fn inflated_uploads_rejected_by_accounting() {
        let (mut origin, mut peers, mut acct, w) =
            setup(&[PeerBehavior::InflatesUsage(50), PeerBehavior::Honest]);
        let mut loader = PageLoader::new(1);
        let _ = loader.load(&w, &mut peers, &mut origin);
        let mut rejected = 0;
        for (_, peer) in peers.iter_mut() {
            for r in peer.upload_records() {
                if acct.settle(&r).is_err() {
                    rejected += 1;
                }
            }
        }
        assert_eq!(rejected, 1);
        // The inflating peer is paid nothing.
        assert_eq!(acct.payable_bytes(PeerId(0)), 0);
        assert!(acct.payable_bytes(PeerId(1)) > 0);
    }

    /// With the accountability-puzzle defense on, honest loads settle
    /// with zero false rejections: the loader gathers proofs from the
    /// serving peers and the provider verifies them against its own
    /// bytes.
    #[test]
    fn puzzle_policy_honest_path_settles() {
        use crate::puzzle::PuzzleSpec;
        use hpop_crypto::puzzle::PuzzleParams;

        let mut p = ContentProvider::new("news.example");
        p.put_object("/index.html", vec![b'h'; 1_000]);
        p.put_object("/a.css", vec![b'a'; 10_000]);
        p.put_page(PageSpec {
            container: "/index.html".into(),
            embedded: vec!["/a.css".into()],
        });
        let mut peers: BTreeMap<PeerId, NoCdnPeer> = (0..2u32)
            .map(|i| (PeerId(i), NoCdnPeer::new(PeerId(i))))
            .collect();
        let assignments: BTreeMap<String, PeerId> = [
            ("/index.html".to_owned(), PeerId(0)),
            ("/a.css".to_owned(), PeerId(1)),
        ]
        .into();
        let mut acct = Accounting::new();
        acct.set_puzzle(PuzzleSpec::for_epoch(&MASTER, 1, PuzzleParams::default()));
        let w = WrapperPage::generate(
            &mut p,
            "/index.html",
            1,
            &assignments,
            &mut acct,
            &MASTER,
            true,
        );
        assert!(w.puzzle.is_some());
        let mut loader = PageLoader::new(1);
        let (report, _) = loader.load(&w, &mut peers, &mut p);
        assert!(report.complete());
        for (_, peer) in peers.iter_mut() {
            assert!(peer.puzzle_work_bytes > 0, "honest peers solved puzzles");
            for r in peer.upload_records() {
                assert!(r.proof.is_some());
                acct.settle_with(&r, |path| p.peek_object(path).cloned())
                    .unwrap();
            }
        }
        assert_eq!(
            acct.payable_bytes(PeerId(0)) + acct.payable_bytes(PeerId(1)),
            11_000
        );
        assert!(acct.rejections().is_empty(), "zero honest false rejections");
    }

    #[test]
    fn all_origin_when_every_peer_is_bad() {
        let (mut origin, mut peers, _, w) = setup(&[PeerBehavior::CorruptsContent; 3]);
        let mut loader = PageLoader::new(1);
        let (report, page) = loader.load(&w, &mut peers, &mut origin);
        assert_eq!(report.corrupted.len(), 3);
        assert_eq!(report.bytes_from_origin, 111_000);
        assert_eq!(page.len(), 111_000);
        assert_eq!(report.total_peer_bytes(), 0);
    }
}
