//! The attic's versioned object store.
//!
//! One canonical copy of every file ("maintaining a single source for a
//! file", §IV-A), with linear version history, content ETags, and
//! WebDAV-style collections (directories).
//!
//! The store is content-addressed, as Venti is (Quinlan & Dorward,
//! FAST 2002): a body is named by its SHA-256, its [`BlobId`], and a
//! version holds the id, the length and the write instant. The
//! namespace — paths, versions, ids — is all the store encodes, so a
//! snapshot of it costs the same whatever the bodies weigh. The bodies
//! themselves sit in a blob table, one shared [`Bytes`] per distinct
//! body, counted by the versions that hold it and dropped with the last
//! of them. A decoded store has the namespace and no bodies; its
//! journaled backend loads them from the blob files it keeps beside
//! the log.

use bytes::Bytes;
use hpop_crypto::sha256::{Digest, Sha256};
use hpop_durability::codec::{self, ByteReader, ByteWriter};
use hpop_durability::wire;
use hpop_netsim::time::SimTime;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
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

/// A body's content address: the SHA-256 of its bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BlobId(pub [u8; 32]);

/// A map keyed by blob id. An id is a SHA-256, so its first eight bytes
/// are a uniform hash already: [`IdHasher`] hashes nothing again.
pub(crate) type BlobMap<V> = HashMap<BlobId, V, BuildHasherDefault<IdHasher>>;

/// The hasher of a [`BlobMap`]: keeps the `u64` a [`BlobId`] hands it.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

impl Hash for BlobId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut head = [0u8; 8];
        head.copy_from_slice(&self.0[..8]);
        state.write_u64(u64::from_le_bytes(head));
    }
}

impl BlobId {
    /// The id of `body`.
    pub fn of(body: &[u8]) -> BlobId {
        BlobId(*Sha256::digest(body).as_bytes())
    }

    /// The strong ETag of the body: the quoted hex of the id's first 8
    /// bytes.
    pub fn etag(&self) -> Etag {
        const NIBBLES: &[u8; 16] = b"0123456789abcdef";
        let mut tag = [b'"'; 18];
        for (digits, &b) in tag[1..17].chunks_exact_mut(2).zip(&self.0) {
            digits[0] = NIBBLES[usize::from(b >> 4)];
            digits[1] = NIBBLES[usize::from(b & 15)];
        }
        Etag(tag)
    }

    /// Appends the id's 64 lower-case hex digits to `out`.
    pub(crate) fn push_hex(&self, out: &mut String) {
        Digest(self.0).push_hex_prefix(out, 32);
    }

    /// Parses 64 hex digits back into an id.
    pub(crate) fn from_hex(hex: &str) -> Option<BlobId> {
        Digest::from_hex(hex).map(|digest| BlobId(digest.0))
    }
}

impl fmt::Debug for BlobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut hex = String::with_capacity(16);
        Digest(self.0).push_hex_prefix(&mut hex, 8);
        write!(f, "BlobId({hex}…)")
    }
}

impl codec::Wire for BlobId {
    fn put(&self, w: &mut ByteWriter) {
        w.put(&self.0);
    }
    fn take(r: &mut ByteReader<'_>) -> Option<BlobId> {
        r.get().map(BlobId)
    }
}

/// A strong ETag, `"` + 16 hex digits + `"`, kept inline: a version
/// holds its tag without an allocation, and reads it without following
/// a pointer.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Etag([u8; 18]);

impl Etag {
    /// The tag as text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("an ETag is ASCII")
    }
}

impl std::ops::Deref for Etag {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<Etag> for String {
    fn from(tag: Etag) -> String {
        tag.as_str().to_owned()
    }
}

impl fmt::Debug for Etag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq<String> for Etag {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

/// A body as a PUT carries it: its id and length always, its bytes
/// while the write is live. The journal records only the id and the
/// length, so a replayed PUT's bytes are the blob file's. Two blobs are
/// equal when their ids and lengths are.
#[derive(Clone, Debug)]
pub struct Blob {
    id: BlobId,
    len: u64,
    body: Option<Bytes>,
}

impl Blob {
    /// A body and its id: hashes the bytes once.
    pub fn new(body: Bytes) -> Blob {
        Blob {
            id: BlobId::of(&body),
            len: body.len() as u64,
            body: Some(body),
        }
    }

    /// The content address.
    pub fn id(&self) -> BlobId {
        self.id
    }

    /// The body, when this blob carries it.
    pub fn body(&self) -> Option<&Bytes> {
        self.body.as_ref()
    }
}

impl PartialEq for Blob {
    fn eq(&self, other: &Blob) -> bool {
        (self.id, self.len) == (other.id, other.len)
    }
}

impl codec::Wire for Blob {
    fn put(&self, w: &mut ByteWriter) {
        w.put(&self.id).u64(self.len);
    }
    fn take(r: &mut ByteReader<'_>) -> Option<Blob> {
        Some(Blob {
            id: r.get()?,
            len: r.u64()?,
            body: None,
        })
    }
}

/// A stored file version.
#[derive(Clone, Debug)]
pub struct Version {
    /// Content bytes: the blob table's copy, shared. Empty when the body
    /// is not loaded (see [`Version::is_loaded`]).
    pub body: Bytes,
    /// Content hash tag (strong ETag).
    pub etag: Etag,
    /// When this version was written.
    pub modified_at: SimTime,
    blob: BlobId,
    len: u64,
    loaded: bool,
}

impl Version {
    /// The id of the version's body.
    pub fn blob(&self) -> BlobId {
        self.blob
    }

    /// The body's length, known whether or not it is loaded.
    pub fn size(&self) -> u64 {
        self.len
    }

    /// Whether [`Version::body`] holds the version's bytes. A decoded
    /// store's versions are not loaded until their blobs are; one whose
    /// blob was missing or damaged stays unloaded, and is never served.
    pub fn is_loaded(&self) -> bool {
        self.loaded
    }
}

#[derive(Clone, Debug)]
enum Node {
    Collection,
    File { versions: Vec<Version> },
}

// The snapshot layout: the write counter, then every node in path
// order. A version is its blob's id and length and its write instant:
// the ETag is the id's prefix, and the body is the blob's.
wire! { enum Node { Collection = 0, File { versions } = 1 } }

impl codec::Wire for Version {
    fn put(&self, w: &mut ByteWriter) {
        w.put(&self.blob).u64(self.len).put(&self.modified_at);
    }
    fn take(r: &mut ByteReader<'_>) -> Option<Version> {
        let blob: BlobId = r.get()?;
        let len = r.u64()?;
        Some(Version {
            body: Bytes::new(),
            etag: blob.etag(),
            modified_at: r.get()?,
            blob,
            len,
            loaded: false,
        })
    }
}

impl codec::Wire for ObjectStore {
    fn put(&self, w: &mut ByteWriter) {
        w.put(&self.writes).put(&self.nodes);
    }
    fn take(r: &mut ByteReader<'_>) -> Option<ObjectStore> {
        Some(ObjectStore {
            writes: r.get()?,
            nodes: r.get()?,
            blobs: BlobMap::default(),
            released: Vec::new(),
        })
    }
}

/// Computes the strong ETag of a body: the first 8 digest bytes in hex,
/// quoted — 18 bytes, in one allocation.
pub fn etag_of(body: &[u8]) -> String {
    BlobId::of(body).etag().into()
}

/// One body in the blob table, and how many versions hold it.
#[derive(Clone, Debug)]
struct Shared {
    body: Bytes,
    versions: u64,
    /// What a backend that keeps the body beside the store knows it by
    /// (see [`ObjectStore::set_tag`]); 0 until it says.
    tag: u64,
}

/// The versioned, hierarchical object store.
#[derive(Clone, Debug)]
pub struct ObjectStore {
    nodes: BTreeMap<String, Node>,
    writes: u64,
    /// Every loaded body by id: the one copy its versions share.
    blobs: BlobMap<Shared>,
    /// Bodies the last op left no version holding, with their tags: see
    /// [`ObjectStore::released`].
    released: Vec<(BlobId, u64)>,
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
        ObjectStore {
            nodes,
            writes: 0,
            blobs: BlobMap::default(),
            released: Vec::new(),
        }
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
        self.put_blob(path, Blob::new(body.into()), now)
    }

    /// `path` is well formed and its parent a collection.
    fn check_parent(&self, path: &str) -> Result<(), StoreError> {
        validate(path)?;
        let parent = parent_of(path).ok_or(StoreError::BadPath)?;
        if !self.is_collection(parent) {
            return Err(StoreError::MissingParent);
        }
        Ok(())
    }

    /// [`ObjectStore::put`] of a body already hashed. A blob that
    /// carries no bytes (a replayed PUT) shares the table's copy when
    /// there is one, and is otherwise stored unloaded.
    ///
    /// # Errors
    ///
    /// As [`ObjectStore::put`].
    pub(crate) fn put_blob(
        &mut self,
        path: &str,
        blob: Blob,
        now: SimTime,
    ) -> Result<String, StoreError> {
        self.check_parent(path)?;
        let blobs = &mut self.blobs;
        let etag = match self.nodes.get_mut(path) {
            Some(Node::Collection) => return Err(StoreError::Conflict),
            Some(Node::File { versions }) => {
                let version = ObjectStore::version(blobs, blob, now);
                let etag = version.etag;
                versions.push(version);
                etag
            }
            None => {
                let version = ObjectStore::version(blobs, blob, now);
                let etag = version.etag;
                let versions = vec![version];
                self.nodes.insert(path.to_owned(), Node::File { versions });
                etag
            }
        };
        self.writes += 1;
        Ok(etag.into())
    }

    /// A new version of `blob` written at `now`, holding the blob
    /// table's copy of the body.
    fn version(blobs: &mut BlobMap<Shared>, blob: Blob, now: SimTime) -> Version {
        let body = match blobs.entry(blob.id) {
            Entry::Occupied(mut held) => {
                held.get_mut().versions += 1;
                Some(held.get().body.clone())
            }
            Entry::Vacant(slot) => blob.body.inspect(|body| {
                slot.insert(Shared {
                    body: body.clone(),
                    versions: 1,
                    tag: 0,
                });
            }),
        };
        Version {
            loaded: body.is_some(),
            body: body.unwrap_or_default(),
            etag: blob.id.etag(),
            modified_at: now,
            blob: blob.id,
            len: blob.len,
        }
    }

    /// Drops `version`'s hold on its body; the last one out drops the
    /// body from the table.
    fn release(blobs: &mut BlobMap<Shared>, released: &mut Vec<(BlobId, u64)>, version: &Version) {
        if !version.loaded {
            return;
        }
        if let Entry::Occupied(mut held) = blobs.entry(version.blob) {
            held.get_mut().versions -= 1;
            if held.get().versions == 0 {
                released.push((version.blob, held.remove().tag));
            }
        }
    }

    /// Releases every version of a removed node.
    fn release_node(&mut self, node: &Node) {
        if let Node::File { versions } = node {
            for v in versions {
                ObjectStore::release(&mut self.blobs, &mut self.released, v);
            }
        }
    }

    /// The bodies no version holds any more since
    /// [`ObjectStore::clear_released`] — what a DELETE, a MOVE or a
    /// prune let go of, each once — with their tags.
    pub(crate) fn released(&self) -> &[(BlobId, u64)] {
        &self.released
    }

    /// Starts a fresh [`ObjectStore::released`] list; the attic's state
    /// machine calls it ahead of every op.
    pub(crate) fn clear_released(&mut self) {
        self.released.clear();
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
            Some(file @ Node::File { .. }) => {
                self.release_node(&file);
                Ok(1)
            }
            Some(Node::Collection) => {
                let doomed: Vec<String> = self.subtree(path).map(|(k, _)| k.clone()).collect();
                for k in &doomed {
                    if let Some(node) = self.nodes.remove(k) {
                        self.release_node(&node);
                    }
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
        let (blobs, released) = (&mut self.blobs, &mut self.released);
        versions.retain(|v| {
            let i = idx;
            idx += 1;
            let is_current = i + 1 == n;
            // Rank 1 = newest noncurrent, rank 2 = the one before it …
            let rank = n - 1 - i;
            let keep_it = is_current || (rank <= keep && v.modified_at >= min_modified);
            if !keep_it {
                report.removed_versions += 1;
                report.reclaimed_bytes += v.len;
                ObjectStore::release(blobs, released, v);
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
                Node::File { versions } => versions.iter().map(|v| v.len).sum(),
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
        // The copy is a new version of the source's blob: nothing is
        // hashed, and the body is shared, not copied.
        let v = self.get(src)?;
        let blob = Blob {
            id: v.blob,
            len: v.len,
            body: v.loaded.then(|| v.body.clone()),
        };
        self.put_blob(dst, blob, now)?;
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

    /// The tag of a held body: `None` when no loaded version holds it.
    pub(crate) fn tag(&self, id: BlobId) -> Option<u64> {
        self.blobs.get(&id).map(|held| held.tag)
    }

    /// Tags a held body with what a backend that keeps it beside the
    /// store knows it by — the journaled attic's blob file — so that
    /// finding a body and finding its file is one lookup. A body no
    /// version holds is not tagged.
    pub(crate) fn set_tag(&mut self, id: BlobId, tag: u64) {
        if let Some(held) = self.blobs.get_mut(&id) {
            held.tag = tag;
        }
    }

    /// Loads every unloaded version's body: the table's copy when it
    /// holds one, else what `load(id, len)` hands back, which must be
    /// the body with that id and length. `load` is asked once per id.
    /// Returns the versions still unloaded, whose blob `load` could not
    /// produce.
    pub(crate) fn load_blobs(&mut self, mut load: impl FnMut(BlobId, u64) -> Option<Bytes>) -> u64 {
        let mut missing = std::collections::HashSet::new();
        let mut unloaded = 0;
        for node in self.nodes.values_mut() {
            let Node::File { versions } = node else {
                continue;
            };
            for v in versions.iter_mut().filter(|v| !v.loaded) {
                let held = match self.blobs.entry(v.blob) {
                    Entry::Occupied(held) => Some(held.into_mut()),
                    Entry::Vacant(slot) if !missing.contains(&v.blob) => {
                        match load(v.blob, v.len) {
                            Some(body) => Some(slot.insert(Shared {
                                body,
                                versions: 0,
                                tag: 0,
                            })),
                            None => {
                                missing.insert(v.blob);
                                None
                            }
                        }
                    }
                    Entry::Vacant(_) => None,
                };
                match held {
                    Some(held) => {
                        held.versions += 1;
                        v.body = held.body.clone();
                        v.loaded = true;
                    }
                    None => unloaded += 1,
                }
            }
        }
        unloaded
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
                Node::File { versions } => versions.last().map_or(0, |v| v.len),
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
    fn copy_shares_the_blob_its_snapshot_names() {
        let mut s = ObjectStore::new();
        let tag = s.put("/a.txt", "carried, not rehashed", t(1)).unwrap();
        s.copy("/a.txt", "/b.txt", t(2)).unwrap();
        s.rename("/b.txt", "/c.txt", t(3)).unwrap();
        assert_eq!(s.write_count(), 3);
        // One body, held by both versions.
        assert_eq!(s.blobs.len(), 1);
        assert_eq!(s.blobs.values().next().unwrap().versions, 2);
        // A decode has the namespace and no body until its blob loads.
        let mut decoded: ObjectStore = codec::decode(&codec::encode(&s)).unwrap();
        assert!(!decoded.get("/c.txt").unwrap().is_loaded());
        let source = s.get("/a.txt").unwrap().clone();
        let mut asked = 0;
        let missing = decoded.load_blobs(|id, len| {
            asked += 1;
            ((id, len) == (source.blob(), source.size())).then(|| source.body.clone())
        });
        assert_eq!((missing, asked), (0, 1));
        for store in [&s, &decoded] {
            let v = store.get("/c.txt").unwrap();
            assert_eq!(v.etag, tag);
            assert_eq!(v.etag, etag_of(&v.body));
            assert_eq!(v.modified_at, t(3));
        }
        assert_eq!(codec::encode(&decoded), codec::encode(&s));
    }

    #[test]
    fn the_last_version_out_drops_the_body() {
        let mut s = ObjectStore::new();
        s.put("/a", "shared", t(1)).unwrap();
        s.put("/a", "own", t(2)).unwrap();
        s.put("/b", "shared", t(3)).unwrap();
        assert_eq!(s.blobs.len(), 2);
        s.prune_noncurrent("/a", 0, SimTime::ZERO).unwrap();
        assert_eq!(s.blobs.len(), 2, "/b still holds the shared body");
        s.delete("/b").unwrap();
        assert_eq!(s.blobs.len(), 1);
        s.delete("/a").unwrap();
        assert!(s.blobs.is_empty());
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
