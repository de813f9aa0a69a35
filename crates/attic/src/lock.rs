//! WebDAV locking (RFC 4918 subset).
//!
//! §IV-A: "WebDAV further mediates access from multiple clients through
//! file locking" — the mechanism that lets several applications (the
//! clinic's records system, the user's word processor, a cloud app) share
//! one source of truth without clobbering each other. Exclusive and
//! shared locks, lock timeouts, and depth-infinity collection locks.

use hpop_durability::codec::{self, ByteReader, ByteWriter};
use hpop_durability::wire;
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_obs::{event, CounterHandle, HistogramHandle};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;
use std::sync::OnceLock;

/// The per-call metric handles of lock mediation, resolved once: the
/// same cells `hpop_obs::metrics()` hands out by name.
struct Meters {
    /// `attic.lock.mediate_ns`.
    mediate: HistogramHandle,
    /// `attic.write.allowed`.
    allowed: CounterHandle,
}

fn meters() -> &'static Meters {
    static METERS: OnceLock<Meters> = OnceLock::new();
    METERS.get_or_init(|| {
        let metrics = hpop_obs::metrics();
        Meters {
            mediate: metrics.histogram("attic.lock.mediate_ns"),
            allowed: metrics.counter("attic.write.allowed"),
        }
    })
}

/// `path`, then each collection above it up to `/`, nearest first — as
/// slices of `path`, and `/` only once.
fn self_and_ancestors(path: &str) -> impl Iterator<Item = &str> {
    std::iter::successors(Some(path), |p| match p.rfind('/') {
        _ if *p == "/" => None,
        Some(0) => Some("/"),
        Some(i) => Some(&p[..i]),
        None => None,
    })
}

/// An opaque lock token returned by LOCK and presented on writes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LockToken(u64);

impl fmt::Display for LockToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "opaquelocktoken:{:016x}", self.0)
    }
}

impl LockToken {
    /// Parses the `opaquelocktoken:…` form produced by [`Display`].
    ///
    /// [`Display`]: std::fmt::Display
    pub fn parse(s: &str) -> Option<LockToken> {
        let hex = s.strip_prefix("opaquelocktoken:")?;
        u64::from_str_radix(hex, 16).ok().map(LockToken)
    }
}

impl codec::Wire for LockToken {
    fn put(&self, w: &mut ByteWriter) {
        w.u64(self.0);
    }
    fn take(r: &mut ByteReader<'_>) -> Option<LockToken> {
        r.u64().map(LockToken)
    }
}

/// Lock acquisition/verification errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockError {
    /// The resource (or an ancestor, via depth-infinity) is locked by
    /// someone else — WebDAV `423 Locked`.
    Locked {
        /// The conflicting lock's owner.
        holder: String,
    },
    /// The presented token doesn't match any live lock on the path.
    BadToken,
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Locked { holder } => write!(f, "resource locked by {holder}"),
            LockError::BadToken => write!(f, "lock token does not match"),
        }
    }
}

impl std::error::Error for LockError {}

/// Exclusive vs shared locking.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockScope {
    /// Only the holder may write.
    Exclusive,
    /// Multiple readers may hold simultaneously; excludes exclusive.
    Shared,
}

/// Lock depth.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockDepth {
    /// The resource itself.
    Zero,
    /// The resource and everything beneath it.
    Infinity,
}

#[derive(Clone, Debug)]
struct Lock {
    token: LockToken,
    owner: String,
    scope: LockScope,
    depth: LockDepth,
    expires_at: SimTime,
}

/// The attic's lock table.
#[derive(Clone, Debug, Default)]
pub struct LockManager {
    locks: BTreeMap<String, Vec<Lock>>,
    next_token: u64,
}

// The snapshot layout: the token counter, then every lock, live or
// expired — expiry is evaluated lazily against `now`, so absolute
// deadlines survive a snapshot.
wire! { struct LockManager { next_token, locks } }
wire! { struct Lock { token, owner, scope, depth, expires_at } }
wire! { enum LockScope { Exclusive = 0, Shared = 1 } }
wire! { enum LockDepth { Zero = 0, Infinity = 1 } }

impl LockManager {
    /// An empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    fn purge(&mut self, now: SimTime) {
        for locks in self.locks.values_mut() {
            locks.retain(|l| l.expires_at > now);
        }
        self.locks.retain(|_, v| !v.is_empty());
    }

    /// Acquires a lock on `path`.
    ///
    /// # Errors
    ///
    /// [`LockError::Locked`] when an exclusive lock (or any lock, if
    /// requesting exclusive) covers the path.
    pub fn lock(
        &mut self,
        path: &str,
        owner: &str,
        scope: LockScope,
        depth: LockDepth,
        ttl: SimDuration,
        now: SimTime,
    ) -> Result<LockToken, LockError> {
        self.purge(now);
        let _mediate = meters().mediate.time();
        let conflict = self
            .covering(path, now)
            .find(|l| scope == LockScope::Exclusive || l.scope == LockScope::Exclusive);
        if let Some(c) = conflict {
            self.note_denied(path, &c.owner, now);
            return Err(LockError::Locked {
                holder: c.owner.clone(),
            });
        }
        // An infinity lock also conflicts with existing locks *below* it.
        if depth == LockDepth::Infinity {
            let below = self.below(path).find(|l| {
                l.expires_at > now
                    && (scope == LockScope::Exclusive || l.scope == LockScope::Exclusive)
            });
            if let Some(c) = below {
                let holder = c.owner.clone();
                self.note_denied(path, &holder, now);
                return Err(LockError::Locked { holder });
            }
        }
        hpop_obs::metrics().counter("attic.lock.acquired").incr();
        self.next_token += 1;
        let token = LockToken(self.next_token);
        self.locks.entry(path.to_owned()).or_default().push(Lock {
            token,
            owner: owner.to_owned(),
            scope,
            depth,
            expires_at: now + ttl,
        });
        Ok(token)
    }

    fn note_denied(&self, path: &str, holder: &str, now: SimTime) {
        hpop_obs::metrics().counter("attic.lock.denied").incr();
        event!(
            hpop_obs::spans(),
            now.as_nanos() / 1_000,
            "attic",
            "lock.denied",
            path = path,
            holder = holder
        );
    }

    /// The locks live at `now` that cover `path`: its own, then each
    /// ancestor's depth-infinity ones, nearest ancestor first.
    fn covering<'a>(&'a self, path: &'a str, now: SimTime) -> impl Iterator<Item = &'a Lock> + 'a {
        self_and_ancestors(path).flat_map(move |at| {
            let own = at == path;
            self.locks
                .get(at)
                .into_iter()
                .flatten()
                .filter(move |l| l.expires_at > now && (own || l.depth == LockDepth::Infinity))
        })
    }

    /// Every lock held strictly inside `path`, live or not. The paths
    /// that start with `path/` are one contiguous run of the table,
    /// entered at `path/` itself: `/d!`, `/d-x` and `/d.a` sort between
    /// `/d` and `/d/`, so a walk entered after `/d` would meet a
    /// sibling first.
    fn below<'a>(&'a self, path: &str) -> impl Iterator<Item = &'a Lock> + 'a {
        let prefix = if path == "/" {
            "/".to_owned()
        } else {
            format!("{path}/")
        };
        self.locks
            .range::<str, _>((Bound::Excluded(prefix.as_str()), Bound::Unbounded))
            .take_while(move |(k, _)| k.starts_with(&prefix))
            .flat_map(|(_, ls)| ls)
    }

    /// Releases a lock by token.
    ///
    /// # Errors
    ///
    /// [`LockError::BadToken`] if no live lock on `path` has this token.
    pub fn unlock(&mut self, path: &str, token: LockToken, now: SimTime) -> Result<(), LockError> {
        self.purge(now);
        let locks = self.locks.get_mut(path).ok_or(LockError::BadToken)?;
        let before = locks.len();
        locks.retain(|l| l.token != token);
        if locks.len() == before {
            return Err(LockError::BadToken);
        }
        Ok(())
    }

    /// Extends a lock's lifetime (LOCK refresh).
    ///
    /// # Errors
    ///
    /// [`LockError::BadToken`] if the token doesn't match a live lock.
    pub fn refresh(
        &mut self,
        path: &str,
        token: LockToken,
        ttl: SimDuration,
        now: SimTime,
    ) -> Result<(), LockError> {
        self.purge(now);
        let lock = self
            .locks
            .get_mut(path)
            .and_then(|ls| ls.iter_mut().find(|l| l.token == token))
            .ok_or(LockError::BadToken)?;
        lock.expires_at = now + ttl;
        Ok(())
    }

    /// Verifies that a write to `path` is admissible: either no covering
    /// exclusive lock, or the presented token matches one. A read-only
    /// check — expiry is evaluated lazily against `now`, so no purge is
    /// needed for the verdict, and a backend whose lock table is only
    /// mutated through a journal can answer it without journaling.
    ///
    /// # Errors
    ///
    /// [`LockError::Locked`] when an exclusive lock covers the path and
    /// the token (if any) doesn't match it.
    pub fn check_write(
        &self,
        path: &str,
        token: Option<LockToken>,
        now: SimTime,
    ) -> Result<(), LockError> {
        let meters = meters();
        let _mediate = meters.mediate.time();
        let mut exclusive = self
            .covering(path, now)
            .filter(|l| l.scope == LockScope::Exclusive);
        let Some(first) = exclusive.next() else {
            meters.allowed.incr();
            return Ok(());
        };
        if token.is_some_and(|t| first.token == t || exclusive.any(|l| l.token == t)) {
            meters.allowed.incr();
            return Ok(());
        }
        hpop_obs::metrics().counter("attic.write.denied").incr();
        event!(
            hpop_obs::spans(),
            now.as_nanos() / 1_000,
            "attic",
            "write.denied",
            path = path,
            holder = first.owner.as_str()
        );
        Err(LockError::Locked {
            holder: first.owner.clone(),
        })
    }

    /// Number of live locks at `now`.
    pub fn live_count(&mut self, now: SimTime) -> usize {
        self.purge(now);
        self.locks.values().map(Vec::len).sum()
    }

    /// The lock covering `path` with this token, if it is still live
    /// at `now` — lock discovery after crash recovery.
    pub fn find(&self, path: &str, token: LockToken, now: SimTime) -> Option<(String, SimTime)> {
        self.locks.get(path).and_then(|ls| {
            ls.iter()
                .find(|l| l.token == token && l.expires_at > now)
                .map(|l| (l.owner.clone(), l.expires_at))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    const TTL: SimDuration = SimDuration::from_secs(60);

    #[test]
    fn exclusive_lock_blocks_others() {
        let mut lm = LockManager::new();
        let tok = lm
            .lock(
                "/f",
                "word-proc",
                LockScope::Exclusive,
                LockDepth::Zero,
                TTL,
                t(0),
            )
            .unwrap();
        let err = lm
            .lock(
                "/f",
                "cloud-app",
                LockScope::Exclusive,
                LockDepth::Zero,
                TTL,
                t(1),
            )
            .unwrap_err();
        assert_eq!(
            err,
            LockError::Locked {
                holder: "word-proc".into()
            }
        );
        // Writes without the token are refused; with it they pass.
        assert!(lm.check_write("/f", None, t(1)).is_err());
        assert!(lm.check_write("/f", Some(tok), t(1)).is_ok());
    }

    #[test]
    fn shared_locks_coexist_but_exclude_exclusive() {
        let mut lm = LockManager::new();
        lm.lock("/f", "r1", LockScope::Shared, LockDepth::Zero, TTL, t(0))
            .unwrap();
        lm.lock("/f", "r2", LockScope::Shared, LockDepth::Zero, TTL, t(0))
            .unwrap();
        assert!(lm
            .lock("/f", "w", LockScope::Exclusive, LockDepth::Zero, TTL, t(0))
            .is_err());
        assert_eq!(lm.live_count(t(0)), 2);
        // Shared locks don't block writes in this model (they guard reads).
        assert!(lm.check_write("/f", None, t(0)).is_ok());
    }

    #[test]
    fn locks_expire() {
        let mut lm = LockManager::new();
        lm.lock("/f", "a", LockScope::Exclusive, LockDepth::Zero, TTL, t(0))
            .unwrap();
        assert!(lm.check_write("/f", None, t(59)).is_err());
        assert!(lm.check_write("/f", None, t(61)).is_ok());
        assert_eq!(lm.live_count(t(61)), 0);
    }

    #[test]
    fn refresh_extends_lifetime() {
        let mut lm = LockManager::new();
        let tok = lm
            .lock("/f", "a", LockScope::Exclusive, LockDepth::Zero, TTL, t(0))
            .unwrap();
        lm.refresh("/f", tok, TTL, t(50)).unwrap();
        assert!(lm.check_write("/f", None, t(100)).is_err());
        assert!(lm.refresh("/f", LockToken(999), TTL, t(50)).is_err());
    }

    #[test]
    fn unlock_releases() {
        let mut lm = LockManager::new();
        let tok = lm
            .lock("/f", "a", LockScope::Exclusive, LockDepth::Zero, TTL, t(0))
            .unwrap();
        assert_eq!(
            lm.unlock("/f", LockToken(999), t(1)),
            Err(LockError::BadToken)
        );
        lm.unlock("/f", tok, t(1)).unwrap();
        assert!(lm.check_write("/f", None, t(1)).is_ok());
        assert_eq!(lm.unlock("/f", tok, t(1)), Err(LockError::BadToken));
    }

    #[test]
    fn depth_infinity_covers_descendants() {
        let mut lm = LockManager::new();
        let tok = lm
            .lock(
                "/records",
                "clinic",
                LockScope::Exclusive,
                LockDepth::Infinity,
                TTL,
                t(0),
            )
            .unwrap();
        assert!(lm
            .check_write("/records/2026/visit.json", None, t(1))
            .is_err());
        assert!(lm
            .check_write("/records/2026/visit.json", Some(tok), t(1))
            .is_ok());
        // Sibling trees unaffected.
        assert!(lm.check_write("/photos/x.jpg", None, t(1)).is_ok());
        // And a new lock below the locked tree is refused.
        assert!(lm
            .lock(
                "/records/2026",
                "other",
                LockScope::Exclusive,
                LockDepth::Zero,
                TTL,
                t(1)
            )
            .is_err());
    }

    #[test]
    fn infinity_lock_conflicts_with_existing_descendant_lock() {
        let mut lm = LockManager::new();
        lm.lock(
            "/d/f",
            "a",
            LockScope::Exclusive,
            LockDepth::Zero,
            TTL,
            t(0),
        )
        .unwrap();
        assert!(lm
            .lock(
                "/d",
                "b",
                LockScope::Exclusive,
                LockDepth::Infinity,
                TTL,
                t(0)
            )
            .is_err());
    }

    /// `!` `-` `.` sort below `/`, so these siblings lie between `/d`
    /// and `/d/`: a subtree walk entered after `/d` would stop at the
    /// first of them and never reach `/d/sub`.
    #[test]
    fn infinity_lock_seeks_its_subtree_past_siblings_that_sort_inside_it() {
        let mut lm = LockManager::new();
        for sibling in ["/d!", "/d-x", "/d.a"] {
            lm.lock(
                sibling,
                "sibling",
                LockScope::Exclusive,
                LockDepth::Zero,
                TTL,
                t(0),
            )
            .unwrap();
        }
        let child = lm
            .lock(
                "/d/sub",
                "child",
                LockScope::Exclusive,
                LockDepth::Zero,
                TTL,
                t(0),
            )
            .unwrap();
        let lock_d = |lm: &mut LockManager| {
            lm.lock(
                "/d",
                "b",
                LockScope::Exclusive,
                LockDepth::Infinity,
                TTL,
                t(1),
            )
        };
        assert_eq!(
            lock_d(&mut lm),
            Err(LockError::Locked {
                holder: "child".into()
            })
        );
        lm.unlock("/d/sub", child, t(1)).unwrap();
        assert!(lock_d(&mut lm).is_ok(), "the siblings are not below /d");
    }

    #[test]
    fn the_ancestor_walk_visits_the_root_once() {
        assert_eq!(self_and_ancestors("/").collect::<Vec<_>>(), ["/"]);
        assert_eq!(
            self_and_ancestors("/a/b").collect::<Vec<_>>(),
            ["/a/b", "/a", "/"]
        );
        let mut lm = LockManager::new();
        lm.lock(
            "/",
            "root",
            LockScope::Exclusive,
            LockDepth::Zero,
            TTL,
            t(0),
        )
        .unwrap();
        assert_eq!(lm.covering("/", t(0)).count(), 1);
        assert!(lm.check_write("/", None, t(0)).is_err());
        assert!(lm.check_write("/a", None, t(0)).is_ok());
    }

    #[test]
    fn depth_zero_does_not_cover_children() {
        let mut lm = LockManager::new();
        lm.lock("/d", "a", LockScope::Exclusive, LockDepth::Zero, TTL, t(0))
            .unwrap();
        assert!(lm.check_write("/d/child", None, t(0)).is_ok());
    }

    #[test]
    fn token_display() {
        let mut lm = LockManager::new();
        let tok = lm
            .lock("/f", "a", LockScope::Exclusive, LockDepth::Zero, TTL, t(0))
            .unwrap();
        assert!(tok.to_string().starts_with("opaquelocktoken:"));
    }
}
