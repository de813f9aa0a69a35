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
//!
//! A load runs in four phases. Its time is SHA-256, and the two hashing
//! phases fan out over every core through one crate-private helper
//! (`par::map`), whose jobs read their inputs and nothing else and whose
//! results merge in input order, so a load's output is the same byte for
//! byte whatever the number of cores:
//!
//! 1. **Serve** — on the calling thread, in path order: each object
//!    from its assigned peer (serving fills caches and feeds counters).
//! 2. **Verify** — each peer-served object's digest on the workers; then,
//!    in path order again, the report, the origin fallbacks and the page.
//! 3. **Nonce** — on the calling thread, in peer order: each peer that
//!    served verified bytes gets the next nonce and, with the puzzle on,
//!    its challenge and the claim it must prove (its cached copies of its
//!    issued objects).
//! 4. **Prove** — each claim's puzzle solved on the workers; then, in
//!    peer order, each peer is charged its work and handed its signed
//!    record.

use crate::accounting::UsageRecord;
use crate::body::Body;
use crate::origin::ContentProvider;
use crate::par;
use crate::peer::{NoCdnPeer, PeerId};
use crate::wrapper::WrapperPage;
use bytes::Bytes;
use hpop_crypto::nonce::Nonce;
use hpop_crypto::puzzle::{self, PuzzleChallenge};
use hpop_crypto::sha256::{Digest, Sha256};
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
        self.load_on(par::workers(), wrapper, peers, origin)
    }

    /// [`PageLoader::load`] with its hashing spread over `workers`
    /// threads.
    pub(crate) fn load_on(
        &mut self,
        workers: usize,
        wrapper: &WrapperPage,
        peers: &mut BTreeMap<PeerId, NoCdnPeer>,
        origin: &mut ContentProvider,
    ) -> (LoaderReport, Body) {
        let host = origin.host().to_owned();
        let served: Vec<Option<Bytes>> = wrapper
            .object_map
            .iter()
            .map(|(path, peer_id)| {
                peers
                    .get_mut(peer_id)
                    .and_then(|p| p.serve(&host, path, origin))
            })
            .collect();
        let checks: Vec<(&Bytes, &Digest)> = wrapper
            .object_map
            .keys()
            .zip(&served)
            .filter_map(|(path, body)| Some((body.as_ref()?, &wrapper.hashes[path])))
            .collect();
        let mut intact = par::map(
            workers,
            &checks,
            |(body, _)| body.len(),
            |(body, expected)| Sha256::digest(body).ct_eq(expected),
        )
        .into_iter();

        let mut report = LoaderReport::default();
        let mut page = Body::with_capacity(wrapper.object_map.len());
        for ((path, &peer_id), from_peer) in wrapper.object_map.iter().zip(served) {
            let verified = match from_peer {
                Some(body) => {
                    if intact.next().expect("one check per served object") {
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
                    debug_assert!(Sha256::digest(&b).ct_eq(&wrapper.hashes[path]));
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
        let mut records = Vec::with_capacity(report.bytes_from_peers.len());
        let mut puzzles: Vec<(PuzzleChallenge, Vec<&[u8]>)> = Vec::new();
        for (&peer_raw, &bytes) in &report.bytes_from_peers {
            let peer_id = PeerId(peer_raw);
            let Some(key) = wrapper.peer_keys.get(&peer_id) else {
                continue;
            };
            self.nonce_counter += 1;
            let issued = || {
                wrapper
                    .object_map
                    .iter()
                    .filter(move |&(_, &p)| p == peer_id)
                    .map(|(path, _)| path.as_str())
            };
            let nonce = Nonce::from_parts(self.client, self.nonce_counter);
            let claim = wrapper.puzzle.as_ref().and_then(|spec| {
                let claim = peers.get(&peer_id)?.claim(&host, issued())?;
                Some((spec.challenge(self.client, peer_id, nonce), claim))
            });
            let objects = issued().count() as u32;
            records.push((peer_id, key, bytes, objects, nonce, claim.is_some()));
            puzzles.extend(claim);
        }
        let mut solved = match &wrapper.puzzle {
            Some(spec) => par::map(
                workers,
                &puzzles,
                |(_, claim)| claim.iter().map(|object| object.len()).sum(),
                |(challenge, claim)| puzzle::solve(challenge, &claim[..], &spec.params),
            ),
            None => Vec::new(),
        }
        .into_iter();
        for (peer_id, key, bytes, objects, nonce, proved) in records {
            let peer = peers.get_mut(&peer_id).expect("a serving peer");
            let proof = proved.then(|| {
                let (proof, work) = solved.next().expect("one solution per claim");
                peer.puzzle_work_bytes += work.data_bytes;
                proof
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
            peer.accept_record(record);
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

    /// The peers of the frozen page views: two honest, one corrupting,
    /// one truncating, one unresponsive and one inflating its uploads.
    /// Views also map objects to `PeerId(6)`, which is no peer at all.
    const FROZEN_BEHAVIORS: [PeerBehavior; 6] = [
        PeerBehavior::Honest,
        PeerBehavior::Honest,
        PeerBehavior::CorruptsContent,
        PeerBehavior::Truncates,
        PeerBehavior::Unresponsive,
        PeerBehavior::InflatesUsage(3),
    ];

    /// Seeded page views over three pages of objects from 0 bytes to
    /// ≈70 KB (both sides of the puzzle's 4 KiB block edges), with the
    /// puzzle off and then on, three clients' loaders reused across
    /// views. Returns the hex SHA-256 over every report field, the
    /// page bytes, every uploaded record (bytes, objects, nonce,
    /// signature, proof tag and checkpoints), each peer's puzzle work
    /// and bytes served, and the count of views that corrupted, fell
    /// back for an unavailable peer and carried proofs.
    fn frozen_views(
        mut load: impl FnMut(
            &mut PageLoader,
            &WrapperPage,
            &mut BTreeMap<PeerId, NoCdnPeer>,
            &mut ContentProvider,
        ) -> (LoaderReport, Body),
    ) -> (String, [u32; 3]) {
        use crate::accounting::{PuzzleCheck, Settlement};
        use crate::puzzle::PuzzleSpec;
        use hpop_crypto::puzzle::{Parts, PuzzleParams};
        use hpop_durability::codec;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let sizes = [
            0, 1, 4_095, 4_097, 9_000, 33_000, 70_001, 12_345, 2_000, 50_000,
        ];
        let pages: [&[usize]; 3] = [&[0, 1, 2, 3], &[4, 5, 6, 7, 8, 9], &[9, 2, 6]];
        let mut h = Sha256::new();
        let mut seen = [0u32; 3];
        for puzzle in [false, true] {
            let mut rng = StdRng::seed_from_u64(0x10ad + u64::from(puzzle));
            let mut origin = ContentProvider::new("news.example");
            for (i, &len) in sizes.iter().enumerate() {
                let body: Vec<u8> = (0..len)
                    .map(|j| (j as u8).wrapping_mul(29) ^ (j >> 9) as u8 ^ i as u8)
                    .collect();
                origin.put_object(format!("/o{i}"), body);
            }
            for objects in pages {
                origin.put_page(PageSpec {
                    container: format!("/o{}", objects[0]),
                    embedded: objects[1..].iter().map(|i| format!("/o{i}")).collect(),
                });
            }
            let mut peers: BTreeMap<PeerId, NoCdnPeer> = FROZEN_BEHAVIORS
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    (
                        PeerId(i as u32),
                        NoCdnPeer::with_behavior(PeerId(i as u32), b),
                    )
                })
                .collect();
            let mut acct = Accounting::new();
            if puzzle {
                let params = PuzzleParams {
                    checkpoint_rounds: 3,
                    ..PuzzleParams::default()
                };
                acct.set_puzzle(PuzzleSpec::for_epoch(&MASTER, 1, params));
            }
            let mut loaders: BTreeMap<u64, PageLoader> = BTreeMap::new();
            for view in 0..16 {
                let objects = pages[rng.gen_range(0..pages.len())];
                let client = rng.gen_range(1..=3u64);
                let assignments: BTreeMap<String, PeerId> = objects
                    .iter()
                    .map(|i| (format!("/o{i}"), PeerId(rng.gen_range(0..=6))))
                    .collect();
                let w = WrapperPage::generate(
                    &mut origin,
                    &format!("/o{}", objects[0]),
                    client,
                    &assignments,
                    &mut acct,
                    &MASTER,
                    view == 0,
                );
                let loader = loaders
                    .entry(client)
                    .or_insert_with(|| PageLoader::new(client));
                let (report, page) = load(loader, &w, &mut peers, &mut origin);
                for (peer, bytes) in &report.bytes_from_peers {
                    h.update(&peer.to_le_bytes());
                    h.update(&bytes.to_le_bytes());
                }
                h.update(&report.bytes_from_origin.to_le_bytes());
                for path in &report.corrupted {
                    h.update(path.as_bytes());
                }
                h.update(b"|");
                for path in &report.unavailable {
                    h.update(path.as_bytes());
                }
                h.update(&report.page_bytes.to_le_bytes());
                for part in page.parts() {
                    h.update(part);
                }
                seen[0] += u32::from(!report.corrupted.is_empty());
                seen[1] += u32::from(!report.unavailable.is_empty());
                for peer in peers.values_mut() {
                    for record in peer.upload_records() {
                        seen[2] += u32::from(record.proof.is_some());
                        let verdict = PuzzleCheck::NotRequired;
                        h.update(&codec::encode(&Settlement { record, verdict }));
                    }
                    h.update(&peer.puzzle_work_bytes.to_le_bytes());
                    h.update(&peer.bytes_served.to_le_bytes());
                }
            }
        }
        (h.finalize().to_hex(), seen)
    }

    /// Every output of a page view — report, page bytes, uploaded
    /// records with their nonces, signatures and proofs, and each
    /// peer's puzzle work — over honest, corrupting, truncating,
    /// unresponsive, inflating and missing peers with the puzzle off
    /// and on, captured from the serial loader at commit 315e842.
    #[test]
    fn loads_frozen() {
        let (digest, seen) = frozen_views(|loader, w, peers, origin| loader.load(w, peers, origin));
        assert_eq!(seen, [19, 29, 18], "the views exercise every path");
        assert_eq!(
            digest,
            "1a87a79ac53f4b8fcc1d5b2fa6bc99b1a1e775a39ac766b630f31cc915d1a32d"
        );
    }

    /// The fan-out changes no output byte: the frozen views loaded on
    /// one, two, three and eight workers give the serial loader's
    /// digest.
    #[test]
    fn loads_match_at_every_worker_count() {
        let serial = frozen_views(|loader, w, peers, origin| loader.load_on(1, w, peers, origin));
        for workers in [2, 3, 8] {
            let fanned =
                frozen_views(|loader, w, peers, origin| loader.load_on(workers, w, peers, origin));
            assert_eq!(fanned, serial, "{workers} workers");
        }
        assert_eq!(
            serial.0,
            "1a87a79ac53f4b8fcc1d5b2fa6bc99b1a1e775a39ac766b630f31cc915d1a32d"
        );
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
