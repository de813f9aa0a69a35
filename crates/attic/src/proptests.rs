//! Property-based tests of the attic's storage and locking invariants.

use crate::backup::{BackupPlan, BackupSet};
use crate::lock::{LockDepth, LockManager, LockScope};
use crate::store::ObjectStore;
use hpop_netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn valid_segment() -> impl Strategy<Value = String> {
    "[a-z0-9]{1,8}".prop_map(|s| s)
}

fn valid_path() -> impl Strategy<Value = String> {
    proptest::collection::vec(valid_segment(), 1..4).prop_map(|segs| format!("/{}", segs.join("/")))
}

proptest! {
    /// The last PUT always wins; history length equals the number of
    /// PUTs; the ETag identifies content, not time.
    #[test]
    fn store_last_write_wins(
        path in valid_path(),
        bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..10),
    ) {
        let mut store = ObjectStore::new();
        // Ensure parents exist (put requires the parent collection).
        if let Some(idx) = path.rfind('/') {
            if idx > 0 {
                store.mkcol_recursive(&path[..idx]).expect("parents");
            }
        }
        for (i, b) in bodies.iter().enumerate() {
            store.put(&path, b.clone(), SimTime::from_secs(i as u64)).expect("put");
        }
        let latest = store.get(&path).expect("exists");
        prop_assert_eq!(&latest.body[..], bodies.last().expect("non-empty").as_slice());
        prop_assert_eq!(store.history(&path).expect("exists").len(), bodies.len());
        // Same content ⇒ same etag (content addressing).
        prop_assert_eq!(&latest.etag, &crate::store::etag_of(bodies.last().expect("non-empty")));
    }

    /// Deleting a collection removes exactly its subtree, nothing else.
    #[test]
    fn delete_is_subtree_exact(
        keep in valid_path(),
        doomed_children in proptest::collection::vec(valid_segment(), 1..6),
    ) {
        prop_assume!(!keep.starts_with("/doomed"));
        let mut store = ObjectStore::new();
        if let Some(idx) = keep.rfind('/') {
            if idx > 0 {
                store.mkcol_recursive(&keep[..idx]).expect("parents");
            }
        }
        store.put(&keep, "keep", SimTime::ZERO).expect("keep path");
        store.mkcol("/doomed").expect("mkcol");
        for c in &doomed_children {
            store.put(&format!("/doomed/{c}"), "x", SimTime::ZERO).expect("child");
        }
        store.delete("/doomed").expect("delete");
        prop_assert!(store.exists(&keep));
        prop_assert!(!store.exists("/doomed"));
        for c in &doomed_children {
            let child = format!("/doomed/{c}");
            prop_assert!(!store.exists(&child));
        }
    }

    /// An exclusive lock blocks all tokenless writes until expiry or
    /// unlock, and never blocks its holder.
    #[test]
    fn exclusive_lock_gate(path in valid_path(), ttl_s in 1u64..1_000) {
        let mut lm = LockManager::new();
        let t0 = SimTime::ZERO;
        let tok = lm
            .lock(&path, "owner", LockScope::Exclusive, LockDepth::Zero, SimDuration::from_secs(ttl_s), t0)
            .expect("first lock");
        let mid = SimTime::from_secs(ttl_s / 2);
        prop_assert!(lm.check_write(&path, None, mid).is_err());
        prop_assert!(lm.check_write(&path, Some(tok), mid).is_ok());
        let after = SimTime::from_secs(ttl_s + 1);
        prop_assert!(lm.check_write(&path, None, after).is_ok());
    }

    /// Erasure backups restore exactly when at least `k` shards survive.
    #[test]
    fn backup_threshold_is_sharp(
        blob in proptest::collection::vec(any::<u8>(), 0..300),
        k in 1u32..6,
        m in 1u32..4,
        losses in proptest::collection::vec(any::<prop::sample::Index>(), 0..8),
    ) {
        let key = [7u8; 32];
        let plan = BackupPlan::Erasure { data: k, parity: m };
        let mut set = BackupSet::create(&blob, &key, "prop", plan).expect("create");
        let n = (k + m) as usize;
        for l in losses {
            set.lose_peer(l.index(n));
        }
        let survivors = set.surviving_peers();
        let restored = set.restore(&key, "prop");
        if survivors >= k as usize {
            prop_assert_eq!(restored.expect("enough shards"), blob);
        } else {
            prop_assert!(restored.is_err());
        }
    }
}

mod dav_xml {
    use crate::dav::{
        push_escaped, xml_unescape, DavResponse, MultiStatus, PropValue, PropfindBody, Propstat,
    };
    use hpop_http::message::StatusCode;
    use proptest::prelude::*;

    /// Property names as the encoder emits them (element names, so no
    /// spaces or XML metacharacters).
    fn prop_name() -> impl Strategy<Value = String> {
        "[a-z][a-z0-9-]{0,11}".prop_map(|s| s)
    }

    /// Text content including every escapable character. The tokenizer
    /// trims surrounding whitespace, so strategies pre-trim — interior
    /// whitespace and entities are the interesting cases anyway.
    fn text_value() -> impl Strategy<Value = String> {
        "[ -~]{0,24}".prop_map(|s| s.trim().to_owned())
    }

    fn prop_value() -> impl Strategy<Value = PropValue> {
        prop_oneof![
            text_value().prop_map(PropValue::Text),
            Just(PropValue::Collection),
            Just(PropValue::Empty),
        ]
    }

    fn propstat() -> impl Strategy<Value = Propstat> {
        (
            prop_oneof![Just(200u16), Just(403), Just(404), Just(423), Just(507)],
            proptest::collection::vec((prop_name(), prop_value()), 0..6),
        )
            .prop_map(|(code, props)| Propstat {
                status: StatusCode(code),
                props,
            })
    }

    fn dav_response() -> impl Strategy<Value = DavResponse> {
        (
            "(/[a-zA-Z0-9 &<>'\"._-]{1,8}){1,4}(\\?version=[0-9]{1,3})?",
            proptest::collection::vec(propstat(), 1..4),
        )
            .prop_map(|(href, propstats)| DavResponse {
                href: href.trim().to_owned(),
                propstats,
            })
    }

    proptest! {
        /// Escaping is lossless for arbitrary text, and the escaped form
        /// never contains raw XML metacharacters.
        #[test]
        fn escape_round_trips(s in "[ -~\u{e9}\u{fc}\u{20ac}]{0,40}") {
            let mut escaped = String::new();
            push_escaped(&mut escaped, &s);
            prop_assert!(!escaped.contains('<'));
            prop_assert!(!escaped.contains('>'));
            prop_assert!(!escaped.contains('"'));
            prop_assert_eq!(xml_unescape(&escaped), s);
        }

        /// encode ∘ parse = id for the full Multi-Status document
        /// shape: nested hrefs (with metacharacters and `?version=`
        /// suffixes), mixed 200/404/other propstats, all three property
        /// value kinds.
        #[test]
        fn multistatus_round_trips(
            responses in proptest::collection::vec(dav_response(), 0..6),
        ) {
            let doc = MultiStatus { responses };
            let xml = doc.to_xml();
            let back = MultiStatus::parse(&xml).expect("own output parses");
            prop_assert_eq!(back, doc);
        }

        /// A re-encode of a parse is byte-stable (the codec has one
        /// canonical form).
        #[test]
        fn multistatus_encoding_is_canonical(
            responses in proptest::collection::vec(dav_response(), 0..4),
        ) {
            let xml = MultiStatus { responses }.to_xml();
            let again = MultiStatus::parse(&xml).expect("parses").to_xml();
            prop_assert_eq!(again, xml);
        }

        /// PROPFIND bodies round-trip through their XML form.
        #[test]
        fn propfind_body_round_trips(
            body in prop_oneof![
                Just(PropfindBody::AllProp),
                Just(PropfindBody::PropName),
                proptest::collection::vec(prop_name(), 1..8).prop_map(PropfindBody::Props),
            ],
        ) {
            let xml = body.to_xml();
            prop_assert_eq!(PropfindBody::parse(&xml).expect("parses"), body);
        }
    }
}

mod server_fuzz {
    use crate::ports::{Origin, VolatileBackend};
    use crate::webdav::DavCore;
    use hpop_core::auth::TokenVerifier;
    use hpop_http::message::{Method, Request};
    use hpop_http::url::Url;
    use hpop_netsim::time::SimTime;
    use proptest::prelude::*;

    fn method_strategy() -> impl Strategy<Value = Method> {
        prop_oneof![
            Just(Method::Get),
            Just(Method::Head),
            Just(Method::Put),
            Just(Method::Post),
            Just(Method::Delete),
            Just(Method::Options),
            Just(Method::PropFind),
            Just(Method::PropPatch),
            Just(Method::MkCol),
            Just(Method::Copy),
            Just(Method::Move),
            Just(Method::Lock),
            Just(Method::Unlock),
        ]
    }

    proptest! {
        /// The attic server never panics and always answers with a
        /// well-formed status, whatever method/path/header soup arrives —
        /// including malformed lock tokens, destinations and conditions.
        #[test]
        fn server_total_on_arbitrary_requests(
            ops in proptest::collection::vec(
                (
                    method_strategy(),
                    "(/[a-z]{1,4}){1,3}|/|//bad|/trailing/",
                    proptest::collection::vec(any::<u8>(), 0..32),
                    proptest::option::of("[ -~]{0,24}"),
                    proptest::option::of("[ -~]{0,24}"),
                ),
                1..40,
            ),
        ) {
            let mut server = DavCore::new(VolatileBackend::new(), TokenVerifier::new([1u8; 32]));
            for (i, (method, path, body, lock_hdr, dest_hdr)) in ops.into_iter().enumerate() {
                let mut req = Request::new(method, Url::https("attic.home", &path));
                req.body = body.into();
                if let Some(l) = lock_hdr {
                    req.headers.set("lock-token", l);
                }
                if let Some(d) = dest_hdr {
                    req.headers.set("destination", d);
                }
                let resp = server.serve(&req, Origin::Local, SimTime::from_secs(i as u64));
                prop_assert!(
                    (200..600).contains(&resp.status.0),
                    "status {} for {method:?} {path}",
                    resp.status.0
                );
                // External handling is equally total (401s without auth).
                let resp = server.serve(&req, Origin::External, SimTime::from_secs(i as u64));
                prop_assert!((200..600).contains(&resp.status.0));
            }
        }
    }
}
