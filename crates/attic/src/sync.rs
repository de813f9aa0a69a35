//! Offline-mode reconciliation.
//!
//! §IV-A ("Flexible Access"): "just as some popular cloud-based
//! applications have an 'offline mode' … similar use of attic-based data
//! is possible. Just as with cloud-based applications, changes to the
//! files would need reconciled upon reconnection."
//!
//! [`OfflineReplica`] snapshots a subtree (remembering base ETags),
//! accumulates disconnected edits, and on reconnection applies each edit
//! whose base is still current; diverged files become *conflict copies*
//! next to the canonical one — the attic never silently loses a version.

use crate::store::{ObjectStore, StoreError};
use bytes::Bytes;
use hpop_netsim::time::SimTime;
use std::collections::BTreeMap;

/// A device's disconnected replica of part of the attic.
#[derive(Clone, Debug, Default)]
pub struct OfflineReplica {
    /// path → (base etag at snapshot time, current local content).
    files: BTreeMap<String, (String, Bytes)>,
    /// Paths edited while offline.
    dirty: BTreeMap<String, bool>,
}

/// What happened to each file at reconnection.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReconcileOutcome {
    /// Local edits applied cleanly (remote unchanged since snapshot).
    pub applied: Vec<String>,
    /// Divergent files: local edit saved as this conflict-copy path.
    pub conflicts: Vec<(String, String)>,
    /// Local edits that were no-ops (file unchanged locally).
    pub unchanged: Vec<String>,
}

impl OfflineReplica {
    /// Snapshots every file under `prefix` from the store.
    pub fn snapshot(store: &ObjectStore, prefix: &str) -> OfflineReplica {
        let mut files = BTreeMap::new();
        for path in store.files_under(prefix) {
            // Listed files are readable by construction; a read error
            // just leaves that file out of the snapshot.
            let Ok(v) = store.get(&path) else { continue };
            files.insert(path, (v.etag.into(), v.body.clone()));
        }
        OfflineReplica {
            files,
            dirty: BTreeMap::new(),
        }
    }

    /// Reads a file from the replica.
    pub fn read(&self, path: &str) -> Option<&Bytes> {
        self.files.get(path).map(|(_, b)| b)
    }

    /// Edits a file locally while offline (must exist in the snapshot or
    /// be new).
    pub fn edit(&mut self, path: &str, body: impl Into<Bytes>) {
        let body = body.into();
        match self.files.get_mut(path) {
            Some((_, b)) => *b = body,
            None => {
                self.files.insert(path.to_owned(), (String::new(), body));
            }
        }
        self.dirty.insert(path.to_owned(), true);
    }

    /// Number of files in the replica.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when the replica holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Reconciles the replica against the live store.
    ///
    /// - Local edit, remote unchanged → local version wins (applied).
    /// - Local edit, remote changed → conflict copy
    ///   `<path>.conflict-<etag-prefix>` is created; the canonical file
    ///   keeps the remote version.
    /// - No local edit → nothing happens regardless of remote state.
    ///
    /// # Errors
    ///
    /// Propagates store errors (e.g. a parent collection deleted while
    /// offline).
    pub fn reconcile(
        &mut self,
        store: &mut ObjectStore,
        now: SimTime,
    ) -> Result<ReconcileOutcome, StoreError> {
        let mut out = ReconcileOutcome::default();
        let dirty_paths: Vec<String> = self
            .dirty
            .iter()
            .filter(|(_, d)| **d)
            .map(|(p, _)| p.clone())
            .collect();
        for path in dirty_paths {
            let Some((base_etag, local)) = self.files.get(&path).cloned() else {
                // Dirty entries always have a file record; if one went
                // missing, drop the stale dirty flag rather than panic.
                self.dirty.insert(path, false);
                continue;
            };
            let remote_etag = match store.get(&path) {
                Ok(v) => Some(String::from(v.etag)),
                Err(StoreError::NotFound) => None,
                Err(e) => return Err(e),
            };
            let remote_unchanged = match (&remote_etag, base_etag.as_str()) {
                (None, "") => true,         // new file both sides absent
                (Some(re), be) => re == be, // still the version we saw
                (None, _) => false,         // deleted remotely meanwhile
            };
            if remote_unchanged {
                let new_etag = store.put(&path, local, now)?;
                if let Some(f) = self.files.get_mut(&path) {
                    f.0 = new_etag;
                }
                out.applied.push(path.clone());
            } else {
                let suffix = remote_etag
                    .as_deref()
                    .unwrap_or("\"deleted\"")
                    .trim_matches('"')
                    .chars()
                    .take(8)
                    .collect::<String>();
                let conflict_path = format!("{path}.conflict-{suffix}");
                store.put(&conflict_path, local, now)?;
                out.conflicts.push((path.clone(), conflict_path));
                // Adopt the remote version locally.
                if let (Ok(v), Some(f)) = (store.get(&path), self.files.get_mut(&path)) {
                    *f = (v.etag.into(), v.body.clone());
                }
            }
            self.dirty.insert(path, false);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn store_with(paths: &[(&str, &str)]) -> ObjectStore {
        let mut s = ObjectStore::new();
        s.mkcol_recursive("/docs").unwrap();
        for (p, b) in paths {
            s.put(p, b.to_string(), t(0)).unwrap();
        }
        s
    }

    #[test]
    fn clean_edit_applies() {
        let mut store = store_with(&[("/docs/a", "v1")]);
        let mut rep = OfflineReplica::snapshot(&store, "/docs");
        rep.edit("/docs/a", "v2-offline");
        let out = rep.reconcile(&mut store, t(10)).unwrap();
        assert_eq!(out.applied, vec!["/docs/a".to_owned()]);
        assert!(out.conflicts.is_empty());
        assert_eq!(&store.get("/docs/a").unwrap().body[..], b"v2-offline");
    }

    #[test]
    fn divergence_creates_conflict_copy() {
        let mut store = store_with(&[("/docs/a", "v1")]);
        let mut rep = OfflineReplica::snapshot(&store, "/docs");
        rep.edit("/docs/a", "offline-edit");
        // Someone edits the canonical copy meanwhile.
        store.put("/docs/a", "online-edit", t(5)).unwrap();
        let out = rep.reconcile(&mut store, t(10)).unwrap();
        assert!(out.applied.is_empty());
        assert_eq!(out.conflicts.len(), 1);
        let (orig, copy) = &out.conflicts[0];
        assert_eq!(orig, "/docs/a");
        // Canonical keeps the online edit; the offline edit is preserved.
        assert_eq!(&store.get("/docs/a").unwrap().body[..], b"online-edit");
        assert_eq!(&store.get(copy).unwrap().body[..], b"offline-edit");
        // The replica adopted the remote version.
        assert_eq!(rep.read("/docs/a").unwrap(), &Bytes::from("online-edit"));
    }

    #[test]
    fn new_offline_file_is_applied() {
        let mut store = store_with(&[]);
        let mut rep = OfflineReplica::snapshot(&store, "/docs");
        rep.edit("/docs/new.txt", "created offline");
        let out = rep.reconcile(&mut store, t(1)).unwrap();
        assert_eq!(out.applied, vec!["/docs/new.txt".to_owned()]);
        assert!(store.exists("/docs/new.txt"));
    }

    #[test]
    fn remote_delete_vs_local_edit_conflicts() {
        let mut store = store_with(&[("/docs/a", "v1")]);
        let mut rep = OfflineReplica::snapshot(&store, "/docs");
        rep.edit("/docs/a", "offline");
        store.delete("/docs/a").unwrap();
        let out = rep.reconcile(&mut store, t(2)).unwrap();
        assert_eq!(out.conflicts.len(), 1);
        assert!(out.conflicts[0].1.contains(".conflict-deleted"));
    }

    #[test]
    fn reconcile_is_idempotent() {
        let mut store = store_with(&[("/docs/a", "v1")]);
        let mut rep = OfflineReplica::snapshot(&store, "/docs");
        rep.edit("/docs/a", "v2");
        rep.reconcile(&mut store, t(1)).unwrap();
        let out2 = rep.reconcile(&mut store, t(2)).unwrap();
        assert_eq!(out2, ReconcileOutcome::default());
        // History shows exactly one new version.
        assert_eq!(store.history("/docs/a").unwrap().len(), 2);
    }

    #[test]
    fn untouched_files_never_written() {
        let mut store = store_with(&[("/docs/a", "v1"), ("/docs/b", "v1")]);
        let mut rep = OfflineReplica::snapshot(&store, "/docs");
        assert_eq!(rep.len(), 2);
        rep.edit("/docs/a", "v2");
        rep.reconcile(&mut store, t(1)).unwrap();
        assert_eq!(store.history("/docs/b").unwrap().len(), 1);
    }
}
