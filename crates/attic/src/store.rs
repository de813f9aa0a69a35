//! The attic's versioned object store.
//!
//! One canonical copy of every file ("maintaining a single source for a
//! file", §IV-A), with linear version history, content ETags, and
//! WebDAV-style collections (directories).

use bytes::Bytes;
use hpop_crypto::sha256::Sha256;
use hpop_durability::codec::{self, ByteReader, ByteWriter};
use hpop_durability::wire;
use hpop_netsim::time::SimTime;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

/// Errors from store operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The path does not exist.
    NotFound,
    /// A parent collection is missing (WebDAV `409 Conflict`).
    MissingParent,
    /// The path exists with the wrong kind (file vs collection).
    Conflict,
    /// Paths must be absolute and normalized.
    BadPath,
    /// Destination already exists (COPY/MOVE without overwrite).
    DestinationExists,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StoreError::NotFound => "path not found",
            StoreError::MissingParent => "parent collection missing",
            StoreError::Conflict => "path kind conflict",
            StoreError::BadPath => "malformed path",
            StoreError::DestinationExists => "destination exists",
        };
        f.write_str(s)
    }
}

impl std::error::Error for StoreError {}

/// What a lifecycle prune removed from one file's history.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// Noncurrent versions removed.
    pub removed_versions: u64,
    /// Bytes those versions held.
    pub reclaimed_bytes: u64,
}

/// A stored file version.
#[derive(Clone, Debug)]
pub struct Version {
    /// Content bytes.
    pub body: Bytes,
    /// Content hash tag (strong ETag).
    pub etag: String,
    /// When this version was written.
    pub modified_at: SimTime,
}

#[derive(Clone, Debug)]
enum Node {
    Collection,
    File { versions: Vec<Version> },
}

// The snapshot layout: the write counter, then every node in path
// order. ETags are content-derived, so a version stores only its body
// and timestamp and recomputes the tag on decode.
wire! { struct ObjectStore { writes, nodes } }
wire! { enum Node { Collection = 0, File { versions } = 1 } }

impl codec::Wire for Version {
    fn put(&self, w: &mut ByteWriter) {
        w.put(&self.body).put(&self.modified_at);
    }
    fn take(r: &mut ByteReader<'_>) -> Option<Version> {
        let body: Bytes = r.get()?;
        Some(Version {
            etag: etag_of(&body),
            body,
            modified_at: r.get()?,
        })
    }
}

/// Computes the strong ETag of a body: the first 8 digest bytes in hex,
/// quoted — 18 bytes, in one allocation.
pub fn etag_of(body: &[u8]) -> String {
    let mut tag = String::with_capacity(18);
    tag.push('"');
    Sha256::digest(body).push_hex_prefix(&mut tag, 8);
    tag.push('"');
    tag
}

/// The versioned, hierarchical object store.
#[derive(Clone, Debug)]
pub struct ObjectStore {
    nodes: BTreeMap<String, Node>,
    writes: u64,
}

impl Default for ObjectStore {
    fn default() -> Self {
        Self::new()
    }
}

fn validate(path: &str) -> Result<(), StoreError> {
    if !path.starts_with('/') || path.contains("//") || (path.ends_with('/') && path != "/") {
        return Err(StoreError::BadPath);
    }
    Ok(())
}

fn parent_of(path: &str) -> Option<&str> {
    if path == "/" {
        return None;
    }
    match path.rfind('/') {
        Some(0) => Some("/"),
        Some(i) => Some(&path[..i]),
        None => None,
    }
}

/// What every path inside collection `path` starts with.
fn child_prefix(path: &str) -> String {
    if path == "/" {
        "/".to_owned()
    } else {
        format!("{path}/")
    }
}

impl ObjectStore {
    /// An empty store containing only the root collection.
    pub fn new() -> ObjectStore {
        let mut nodes = BTreeMap::new();
        nodes.insert("/".to_owned(), Node::Collection);
        ObjectStore { nodes, writes: 0 }
    }

    /// Whether `path` exists (file or collection).
    pub fn exists(&self, path: &str) -> bool {
        self.nodes.contains_key(path)
    }

    /// Whether `path` is a collection.
    pub fn is_collection(&self, path: &str) -> bool {
        matches!(self.nodes.get(path), Some(Node::Collection))
    }

    /// Creates a collection (WebDAV `MKCOL`).
    ///
    /// # Errors
    ///
    /// Fails if the path is malformed, the parent is missing, or the
    /// path already exists.
    pub fn mkcol(&mut self, path: &str) -> Result<(), StoreError> {
        validate(path)?;
        if self.nodes.contains_key(path) {
            return Err(StoreError::Conflict);
        }
        let parent = parent_of(path).ok_or(StoreError::BadPath)?;
        if !self.is_collection(parent) {
            return Err(StoreError::MissingParent);
        }
        self.nodes.insert(path.to_owned(), Node::Collection);
        Ok(())
    }

    /// Creates every missing collection along `path` (setup helper).
    ///
    /// # Errors
    ///
    /// Fails on malformed paths or when a segment exists as a file.
    pub fn mkcol_recursive(&mut self, path: &str) -> Result<(), StoreError> {
        validate(path)?;
        let mut at = String::new();
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            at.push('/');
            at.push_str(seg);
            match self.nodes.get(&at) {
                Some(Node::Collection) => {}
                Some(Node::File { .. }) => return Err(StoreError::Conflict),
                None => {
                    self.nodes.insert(at.clone(), Node::Collection);
                }
            }
        }
        Ok(())
    }

    /// Writes a file version (`PUT`): creates the file or appends to its
    /// history. Returns the new version's ETag.
    ///
    /// # Errors
    ///
    /// Fails if the parent collection is missing, the path names a
    /// collection, or the path is malformed.
    pub fn put(
        &mut self,
        path: &str,
        body: impl Into<Bytes>,
        now: SimTime,
    ) -> Result<String, StoreError> {
        self.put_tagged(path, body.into(), None, now)
    }

    /// The tail of every write: `etag` is the body's tag when the
    /// caller already holds it (a copy carries its source's), `None`
    /// to hash the body here — after the path checks, so a refused
    /// write hashes nothing.
    fn put_tagged(
        &mut self,
        path: &str,
        body: Bytes,
        etag: Option<String>,
        now: SimTime,
    ) -> Result<String, StoreError> {
        validate(path)?;
        let parent = parent_of(path).ok_or(StoreError::BadPath)?;
        if !self.is_collection(parent) {
            return Err(StoreError::MissingParent);
        }
        let etag = etag.unwrap_or_else(|| etag_of(&body));
        let version = Version {
            body,
            etag: etag.clone(),
            modified_at: now,
        };
        match self.nodes.get_mut(path) {
            Some(Node::Collection) => return Err(StoreError::Conflict),
            Some(Node::File { versions }) => versions.push(version),
            None => {
                self.nodes.insert(
                    path.to_owned(),
                    Node::File {
                        versions: vec![version],
                    },
                );
            }
        }
        self.writes += 1;
        Ok(etag)
    }

    /// Reads the latest version of a file (`GET`).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if missing; [`StoreError::Conflict`] if
    /// the path is a collection.
    pub fn get(&self, path: &str) -> Result<&Version, StoreError> {
        match self.nodes.get(path) {
            // Files always hold >= 1 version (put never creates an empty
            // history), but a read route must not panic: treat the
            // impossible empty history as absence, not a crash.
            Some(Node::File { versions }) => versions.last().ok_or(StoreError::NotFound),
            Some(Node::Collection) => Err(StoreError::Conflict),
            None => Err(StoreError::NotFound),
        }
    }

    /// The full version history of a file, oldest first.
    ///
    /// # Errors
    ///
    /// As [`ObjectStore::get`].
    pub fn history(&self, path: &str) -> Result<&[Version], StoreError> {
        match self.nodes.get(path) {
            Some(Node::File { versions }) => Ok(versions),
            Some(Node::Collection) => Err(StoreError::Conflict),
            None => Err(StoreError::NotFound),
        }
    }

    /// Deletes a file, or a collection and everything under it
    /// (`DELETE`). Returns how many nodes were removed.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if the path is missing; the root cannot
    /// be deleted ([`StoreError::BadPath`]).
    pub fn delete(&mut self, path: &str) -> Result<usize, StoreError> {
        if path == "/" {
            return Err(StoreError::BadPath);
        }
        match self.nodes.remove(path) {
            None => Err(StoreError::NotFound),
            Some(Node::File { .. }) => Ok(1),
            Some(Node::Collection) => {
                let doomed: Vec<String> = self.subtree(path).map(|(k, _)| k.clone()).collect();
                for k in &doomed {
                    self.nodes.remove(k);
                }
                Ok(1 + doomed.len())
            }
        }
    }

    /// Every node strictly inside collection `path`, in path order, at
    /// the cost of the subtree rather than of the store: the keys that
    /// start with `path/` are one contiguous run of the map. The run is
    /// entered at `path/` itself, never at `path` — `/d!`, `/d.a` and
    /// `/d-x` all sort between `/d` and `/d/`, so a walk that started
    /// after `/d` would meet a sibling first and stop before the
    /// children.
    fn subtree(&self, path: &str) -> impl Iterator<Item = (&String, &Node)> {
        let prefix = child_prefix(path);
        self.nodes
            .range::<str, _>((Bound::Excluded(prefix.as_str()), Bound::Unbounded))
            .take_while(move |(k, _)| k.starts_with(&prefix))
    }

    /// `Ok` when `path` is a collection, else the error a listing of
    /// it answers with.
    fn require_collection(&self, path: &str) -> Result<(), StoreError> {
        match self.nodes.get(path) {
            Some(Node::Collection) => Ok(()),
            Some(Node::File { .. }) => Err(StoreError::Conflict),
            None => Err(StoreError::NotFound),
        }
    }

    /// Lists the immediate children of a collection (`PROPFIND` depth 1),
    /// as `(name, is_collection)` pairs in sorted order. Costs one map
    /// seek per child, however much lies below them: on meeting the
    /// first node inside a child collection the walk re-enters the map
    /// past that child's whole subtree.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] / [`StoreError::Conflict`] as usual.
    pub fn list(&self, path: &str) -> Result<Vec<(String, bool)>, StoreError> {
        self.require_collection(path)?;
        let prefix = child_prefix(path);
        let mut out = Vec::new();
        let mut from = prefix.clone();
        'seek: loop {
            let run = self
                .nodes
                .range::<str, _>((Bound::Included(from.as_str()), Bound::Unbounded));
            for (k, n) in run {
                let Some(name) = k.strip_prefix(&prefix) else {
                    break 'seek;
                };
                match name.find('/') {
                    // Only the root is its own child prefix.
                    None if name.is_empty() => {}
                    None => out.push((k.clone(), matches!(n, Node::Collection))),
                    Some(slash) => {
                        // Everything under `<child>/` sorts below
                        // `<child>0`, and nothing else does.
                        from = format!("{}0", &k[..prefix.len() + slash]);
                        continue 'seek;
                    }
                }
            }
            break;
        }
        Ok(out)
    }

    /// Every descendant of a collection (`PROPFIND` depth infinity),
    /// as `(path, is_collection)` pairs in sorted path order; the
    /// resource itself is not included.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] / [`StoreError::Conflict`] as
    /// [`ObjectStore::list`].
    pub fn descendants(&self, path: &str) -> Result<Vec<(String, bool)>, StoreError> {
        self.require_collection(path)?;
        Ok(self
            .subtree(path)
            .map(|(k, n)| (k.clone(), matches!(n, Node::Collection)))
            .collect())
    }

    /// Removes noncurrent versions of a file: a noncurrent version
    /// survives only if it is among the `keep` newest noncurrent
    /// versions **and** was written at or after `min_modified`. The
    /// current (latest) version is never touched — lifecycle compaction
    /// must not delete acknowledged data.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if `path` is missing,
    /// [`StoreError::Conflict`] if it names a collection.
    pub fn prune_noncurrent(
        &mut self,
        path: &str,
        keep: usize,
        min_modified: SimTime,
    ) -> Result<PruneReport, StoreError> {
        let versions = match self.nodes.get_mut(path) {
            Some(Node::File { versions }) => versions,
            Some(Node::Collection) => return Err(StoreError::Conflict),
            None => return Err(StoreError::NotFound),
        };
        let n = versions.len();
        let mut report = PruneReport::default();
        let mut idx = 0usize;
        versions.retain(|v| {
            let i = idx;
            idx += 1;
            let is_current = i + 1 == n;
            // Rank 1 = newest noncurrent, rank 2 = the one before it …
            let rank = n - 1 - i;
            let keep_it = is_current || (rank <= keep && v.modified_at >= min_modified);
            if !keep_it {
                report.removed_versions += 1;
                report.reclaimed_bytes += v.body.len() as u64;
            }
            keep_it
        });
        Ok(report)
    }

    /// Total bytes across *all* versions (the number lifecycle
    /// compaction shrinks; compare [`ObjectStore::latest_bytes`]).
    pub fn total_bytes(&self) -> u64 {
        self.nodes
            .values()
            .map(|n| match n {
                Node::File { versions } => versions.iter().map(|v| v.body.len() as u64).sum(),
                Node::Collection => 0,
            })
            .sum()
    }

    /// Copies a file (`COPY`). The destination must not exist.
    ///
    /// # Errors
    ///
    /// Source must be a file; destination parent must exist.
    pub fn copy(&mut self, src: &str, dst: &str, now: SimTime) -> Result<(), StoreError> {
        if self.nodes.contains_key(dst) {
            return Err(StoreError::DestinationExists);
        }
        // ETags are content-derived, so the copy's tag is its source's:
        // the same bytes are not hashed a second time.
        let Version { body, etag, .. } = self.get(src)?.clone();
        self.put_tagged(dst, body, Some(etag), now)?;
        Ok(())
    }

    /// Moves a file (`MOVE`): copy then delete the source.
    ///
    /// # Errors
    ///
    /// As [`ObjectStore::copy`].
    pub fn rename(&mut self, src: &str, dst: &str, now: SimTime) -> Result<(), StoreError> {
        self.copy(src, dst, now)?;
        self.delete(src)?;
        Ok(())
    }

    /// All file paths under a prefix (the backup and health services
    /// enumerate with this).
    pub fn files_under(&self, prefix: &str) -> Vec<String> {
        let own = self.nodes.get_key_value(prefix);
        own.into_iter()
            .chain(self.subtree(prefix))
            .filter(|(_, n)| matches!(n, Node::File { .. }))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Total writes performed (experiment metric).
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Total bytes of latest versions (storage footprint).
    pub fn latest_bytes(&self) -> u64 {
        self.nodes
            .values()
            .map(|n| match n {
                Node::File { versions } => versions.last().map_or(0, |v| v.body.len() as u64),
                Node::Collection => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn put_get_roundtrip_with_versions() {
        let mut s = ObjectStore::new();
        let e1 = s.put("/a.txt", "v1", t(1)).unwrap();
        let e2 = s.put("/a.txt", "v2", t(2)).unwrap();
        assert_ne!(e1, e2);
        let v = s.get("/a.txt").unwrap();
        assert_eq!(&v.body[..], b"v2");
        assert_eq!(v.etag, e2);
        assert_eq!(s.history("/a.txt").unwrap().len(), 2);
        assert_eq!(s.write_count(), 2);
    }

    #[test]
    fn collections_gate_puts() {
        let mut s = ObjectStore::new();
        assert_eq!(
            s.put("/docs/a.txt", "x", t(1)),
            Err(StoreError::MissingParent)
        );
        s.mkcol("/docs").unwrap();
        s.put("/docs/a.txt", "x", t(1)).unwrap();
        assert!(s.is_collection("/docs"));
        assert!(!s.is_collection("/docs/a.txt"));
    }

    #[test]
    fn mkcol_errors() {
        let mut s = ObjectStore::new();
        assert_eq!(s.mkcol("/a/b"), Err(StoreError::MissingParent));
        s.mkcol("/a").unwrap();
        assert_eq!(s.mkcol("/a"), Err(StoreError::Conflict));
        assert_eq!(s.mkcol("relative"), Err(StoreError::BadPath));
        assert_eq!(s.mkcol("/a//b"), Err(StoreError::BadPath));
        assert_eq!(s.mkcol("/a/"), Err(StoreError::BadPath));
    }

    #[test]
    fn mkcol_recursive_builds_trees() {
        let mut s = ObjectStore::new();
        s.mkcol_recursive("/health/clinic/2026").unwrap();
        assert!(s.is_collection("/health/clinic/2026"));
        s.put("/health/clinic/2026/visit.json", "{}", t(1)).unwrap();
        // A file blocking the path is a conflict.
        assert_eq!(
            s.mkcol_recursive("/health/clinic/2026/visit.json/deeper"),
            Err(StoreError::Conflict)
        );
    }

    #[test]
    fn delete_is_recursive() {
        let mut s = ObjectStore::new();
        s.mkcol_recursive("/d/e").unwrap();
        s.put("/d/a.txt", "x", t(1)).unwrap();
        s.put("/d/e/b.txt", "y", t(1)).unwrap();
        assert_eq!(s.delete("/d").unwrap(), 4);
        assert!(!s.exists("/d/e/b.txt"));
        assert_eq!(s.delete("/d"), Err(StoreError::NotFound));
        assert_eq!(s.delete("/"), Err(StoreError::BadPath));
    }

    #[test]
    fn list_immediate_children_only() {
        let mut s = ObjectStore::new();
        s.mkcol_recursive("/d/sub").unwrap();
        s.put("/d/a.txt", "x", t(1)).unwrap();
        s.put("/d/sub/deep.txt", "y", t(1)).unwrap();
        let ls = s.list("/d").unwrap();
        assert_eq!(
            ls,
            vec![("/d/a.txt".to_owned(), false), ("/d/sub".to_owned(), true)]
        );
        let root = s.list("/").unwrap();
        assert_eq!(root, vec![("/d".to_owned(), true)]);
        assert_eq!(s.list("/d/a.txt"), Err(StoreError::Conflict));
    }

    #[test]
    fn copy_and_move() {
        let mut s = ObjectStore::new();
        s.put("/a.txt", "data", t(1)).unwrap();
        s.copy("/a.txt", "/b.txt", t(2)).unwrap();
        assert_eq!(&s.get("/b.txt").unwrap().body[..], b"data");
        assert!(s.exists("/a.txt"));
        assert_eq!(
            s.copy("/a.txt", "/b.txt", t(3)),
            Err(StoreError::DestinationExists)
        );
        s.rename("/a.txt", "/c.txt", t(3)).unwrap();
        assert!(!s.exists("/a.txt"));
        assert!(s.exists("/c.txt"));
    }

    #[test]
    fn copy_carries_the_tag_its_snapshot_recomputes() {
        let mut s = ObjectStore::new();
        let tag = s.put("/a.txt", "carried, not rehashed", t(1)).unwrap();
        s.copy("/a.txt", "/b.txt", t(2)).unwrap();
        s.rename("/b.txt", "/c.txt", t(3)).unwrap();
        assert_eq!(s.write_count(), 3);
        // Decode hashes every body afresh, so a carried tag that was
        // not `etag_of(body)` would change across a snapshot.
        let decoded: ObjectStore = codec::decode(&codec::encode(&s)).unwrap();
        for store in [&s, &decoded] {
            let v = store.get("/c.txt").unwrap();
            assert_eq!(v.etag, tag);
            assert_eq!(v.etag, etag_of(&v.body));
            assert_eq!(v.modified_at, t(3));
        }
        assert_eq!(codec::encode(&decoded), codec::encode(&s));
    }

    #[test]
    fn copy_error_order_is_unchanged() {
        let mut s = ObjectStore::new();
        s.mkcol("/d").unwrap();
        s.put("/a", "x", t(1)).unwrap();
        // An existing destination wins over every other complaint.
        assert_eq!(
            s.copy("/nope", "/d", t(2)),
            Err(StoreError::DestinationExists)
        );
        // Then the source's, before anything about the destination path.
        assert_eq!(s.copy("/nope", "bad", t(2)), Err(StoreError::NotFound));
        assert_eq!(s.copy("/d", "bad", t(2)), Err(StoreError::Conflict));
        assert_eq!(s.copy("/a", "bad", t(2)), Err(StoreError::BadPath));
        assert_eq!(s.copy("/a", "/x/y", t(2)), Err(StoreError::MissingParent));
        assert_eq!(s.write_count(), 1);
    }

    #[test]
    fn walks_skip_the_names_that_sort_inside_a_collections_gap() {
        let mut s = ObjectStore::new();
        // `!` `-` `.` sort below `/`, `0` just above it.
        for sibling in ["/d!", "/d-x", "/d.a", "/d0"] {
            s.put(sibling, "sibling", t(1)).unwrap();
        }
        s.mkcol_recursive("/d/sub").unwrap();
        s.put("/d/sub!x", "x", t(1)).unwrap();
        s.put("/d/sub/deep", "y", t(1)).unwrap();
        s.put("/d/sub0", "z", t(1)).unwrap();
        let names = |v: Vec<(String, bool)>| v.into_iter().map(|(k, _)| k).collect::<Vec<_>>();
        assert_eq!(
            names(s.list("/d").unwrap()),
            ["/d/sub", "/d/sub!x", "/d/sub0"]
        );
        assert_eq!(
            names(s.descendants("/d").unwrap()),
            ["/d/sub", "/d/sub!x", "/d/sub/deep", "/d/sub0"]
        );
        assert_eq!(s.files_under("/d"), ["/d/sub!x", "/d/sub/deep", "/d/sub0"]);
        assert_eq!(s.delete("/d").unwrap(), 5);
        assert_eq!(names(s.list("/").unwrap()), ["/d!", "/d-x", "/d.a", "/d0"]);
    }

    #[test]
    fn etag_is_content_derived() {
        assert_eq!(etag_of(b"same"), etag_of(b"same"));
        assert_ne!(etag_of(b"a"), etag_of(b"b"));
        let mut s = ObjectStore::new();
        s.put("/x", "same", t(1)).unwrap();
        s.put("/y", "same", t(2)).unwrap();
        assert_eq!(s.get("/x").unwrap().etag, s.get("/y").unwrap().etag);
    }

    /// Every stored version's tag, and every snapshot decode, derive from
    /// these bytes: captured from the previous `format!`-based build and
    /// cross-checked against Python's `hashlib`.
    #[test]
    fn etag_bytes_are_frozen() {
        let pattern = |n: u32| -> Vec<u8> { (0..n).map(|i| (i * 31 + (i >> 8)) as u8).collect() };
        assert_eq!(etag_of(b""), "\"e3b0c44298fc1c14\"");
        assert_eq!(etag_of(b"x"), "\"2d711642b726b044\"");
        assert_eq!(etag_of(&pattern(1 << 10)), "\"e577987572edcdba\"");
        assert_eq!(etag_of(&pattern(1 << 16)), "\"1dd334fe06e447d4\"");
    }

    #[test]
    fn descendants_walk_whole_subtrees() {
        let mut s = ObjectStore::new();
        s.mkcol_recursive("/d/sub").unwrap();
        s.put("/d/a.txt", "x", t(1)).unwrap();
        s.put("/d/sub/deep.txt", "y", t(1)).unwrap();
        let all = s.descendants("/d").unwrap();
        assert_eq!(
            all,
            vec![
                ("/d/a.txt".to_owned(), false),
                ("/d/sub".to_owned(), true),
                ("/d/sub/deep.txt".to_owned(), false),
            ]
        );
        assert_eq!(s.descendants("/").unwrap().len(), 4);
        assert_eq!(s.descendants("/d/a.txt"), Err(StoreError::Conflict));
        assert_eq!(s.descendants("/nope"), Err(StoreError::NotFound));
    }

    #[test]
    fn prune_keeps_current_and_newest_noncurrent() {
        let mut s = ObjectStore::new();
        for i in 0..5u64 {
            s.put("/f", vec![b'x'; 10], t(i)).unwrap();
        }
        // Keep 2 noncurrent, no age cutoff: v0, v1 go (20 bytes).
        let r = s.prune_noncurrent("/f", 2, SimTime::ZERO).unwrap();
        assert_eq!(r.removed_versions, 2);
        assert_eq!(r.reclaimed_bytes, 20);
        assert_eq!(s.history("/f").unwrap().len(), 3);
        // Age cutoff t(4): only the current version survives.
        let r = s.prune_noncurrent("/f", 99, t(4)).unwrap();
        assert_eq!(r.removed_versions, 2);
        let h = s.history("/f").unwrap();
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].modified_at, t(4));
        // Pruning everything noncurrent never touches the current body.
        let r = s.prune_noncurrent("/f", 0, SimTime::MAX).unwrap();
        assert_eq!(r.removed_versions, 0);
        assert!(s.get("/f").is_ok());
        assert_eq!(
            s.prune_noncurrent("/missing", 0, t(0)),
            Err(StoreError::NotFound)
        );
    }

    #[test]
    fn total_bytes_counts_all_versions() {
        let mut s = ObjectStore::new();
        s.put("/f", vec![0u8; 7], t(0)).unwrap();
        s.put("/f", vec![0u8; 5], t(1)).unwrap();
        assert_eq!(s.total_bytes(), 12);
        assert_eq!(s.latest_bytes(), 5);
    }

    #[test]
    fn files_under_and_sizes() {
        let mut s = ObjectStore::new();
        s.mkcol_recursive("/h/c1").unwrap();
        s.put("/h/c1/r1.json", "12345", t(1)).unwrap();
        s.put("/h/c1/r2.json", "123", t(1)).unwrap();
        s.put("/top.txt", "xy", t(1)).unwrap();
        let files = s.files_under("/h");
        assert_eq!(files.len(), 2);
        assert_eq!(s.latest_bytes(), 10);
        assert_eq!(s.files_under("/").len(), 3);
    }

    mod walks_agree_with_the_whole_map_filter {
        use super::*;
        use proptest::prelude::*;

        /// Segment names whose order against `/` is the trap: `d!`,
        /// `d-x` and `d.a` sort between `d` and `d/`, `d0` right after.
        const NAMES: [&str; 8] = ["d", "d!", "d-x", "d.a", "d0", "a", "sub", "sub!x"];

        fn tree() -> impl Strategy<Value = Vec<(Vec<usize>, bool)>> {
            let path = proptest::collection::vec(0..NAMES.len(), 1..4);
            proptest::collection::vec((path, any::<bool>()), 0..24)
        }

        fn build(tree: &[(Vec<usize>, bool)]) -> ObjectStore {
            let mut s = ObjectStore::new();
            for (segs, is_file) in tree {
                let segs: Vec<&str> = segs.iter().map(|&i| NAMES[i]).collect();
                let path = format!("/{}", segs.join("/"));
                // A file met on the way down refuses the rest: skip it.
                if s.mkcol_recursive(parent_of(&path).unwrap()).is_err() {
                    continue;
                }
                let _ = if *is_file {
                    s.put(&path, "x", t(1)).map(drop)
                } else {
                    s.mkcol(&path)
                };
            }
            s
        }

        /// What every walk did before: a filter over the whole map.
        fn below<'a>(s: &'a ObjectStore, path: &str) -> Vec<(&'a String, &'a Node)> {
            let prefix = child_prefix(path);
            s.nodes
                .iter()
                .filter(|(k, _)| k.starts_with(&prefix) && k.len() > prefix.len())
                .collect()
        }

        fn tagged(nodes: Vec<(&String, &Node)>) -> Vec<(String, bool)> {
            nodes
                .into_iter()
                .map(|(k, n)| (k.clone(), matches!(n, Node::Collection)))
                .collect()
        }

        proptest! {
            #[test]
            fn on_random_trees(tree in tree()) {
                let s = build(&tree);
                for (path, node) in &s.nodes {
                    let all = below(&s, path);
                    let files: Vec<String> = s
                        .nodes
                        .get_key_value(path)
                        .into_iter()
                        .chain(all.iter().copied())
                        .filter(|(_, n)| matches!(n, Node::File { .. }))
                        .map(|(k, _)| k.clone())
                        .collect();
                    prop_assert_eq!(s.files_under(path), files);

                    if matches!(node, Node::Collection) {
                        let prefix = child_prefix(path);
                        let children = all
                            .iter()
                            .copied()
                            .filter(|(k, _)| !k[prefix.len()..].contains('/'))
                            .collect();
                        prop_assert_eq!(s.list(path), Ok(tagged(children)));
                        prop_assert_eq!(s.descendants(path), Ok(tagged(all.clone())));
                    } else {
                        prop_assert_eq!(s.list(path), Err(StoreError::Conflict));
                        prop_assert_eq!(s.descendants(path), Err(StoreError::Conflict));
                    }

                    if path != "/" {
                        let mut after = s.clone();
                        prop_assert_eq!(after.delete(path), Ok(1 + all.len()));
                        let survivors: Vec<&String> = s
                            .nodes
                            .keys()
                            .filter(|k| *k != path && !all.iter().any(|(d, _)| d == k))
                            .collect();
                        prop_assert_eq!(after.nodes.keys().collect::<Vec<_>>(), survivors);
                    }
                }
            }
        }
    }
}
