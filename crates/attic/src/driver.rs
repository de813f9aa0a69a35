//! The `open`/`close` wrapper driver.
//!
//! §IV-A: "our prototype replaces application's default `open`, `close`,
//! `fopen`, and `fclose` function calls with our own … any reference to
//! 'open' is replaced with … a GET request for the file to the data
//! attic. Upon receiving the file, the driver creates a local copy and
//! opens it for the application. Subsequent accesses to the file will
//! execute on the local copy, which will be sent back to the attic on
//! close. No change to the application code is required."
//!
//! [`FileDriver`] reproduces that behaviour against a [`DavCore`]:
//! one GET per open, local reads/writes, one PUT per dirty close.

use crate::ports::Origin;
use crate::webdav::DavCore;
use hpop_http::message::{Request, Response, StatusCode};
use hpop_http::url::Url;
use hpop_netsim::time::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// A handle to an open file (the application's "file descriptor").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Fd(u64);

/// Driver I/O errors (mapped from attic HTTP statuses).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DriverError {
    /// The attic has no such file (open of a missing path without create).
    NotFound,
    /// The file is WebDAV-locked by another application.
    Locked,
    /// Unknown file descriptor.
    BadFd,
    /// The attic rejected the operation (other status).
    Remote(u16),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::NotFound => write!(f, "file not found in attic"),
            DriverError::Locked => write!(f, "file locked by another application"),
            DriverError::BadFd => write!(f, "unknown file descriptor"),
            DriverError::Remote(s) => write!(f, "attic returned status {s}"),
        }
    }
}

impl std::error::Error for DriverError {}

struct OpenFile {
    path: String,
    local_copy: Vec<u8>,
    etag: String,
    dirty: bool,
}

/// Round-trip counters (the experiment metric: local accesses are free,
/// only open/close touch the network).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// GET requests issued (one per open).
    pub gets: u64,
    /// PUT requests issued (one per dirty close).
    pub puts: u64,
    /// Reads served from the local copy.
    pub local_reads: u64,
    /// Writes applied to the local copy.
    pub local_writes: u64,
}

/// The wrapper driver: open fetches, close pushes back.
pub struct FileDriver {
    attic: Rc<RefCell<DavCore>>,
    endpoint: Url,
    open_files: BTreeMap<Fd, OpenFile>,
    next_fd: u64,
    stats: DriverStats,
}

impl std::fmt::Debug for FileDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileDriver")
            .field("open_files", &self.open_files.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl FileDriver {
    /// Creates a driver talking to an in-process attic (local trust).
    pub fn new(attic: Rc<RefCell<DavCore>>, endpoint: Url) -> FileDriver {
        FileDriver {
            attic,
            endpoint,
            open_files: BTreeMap::new(),
            next_fd: 0,
            stats: DriverStats::default(),
        }
    }

    fn send(&self, req: Request, now: SimTime) -> Response {
        self.attic.borrow_mut().serve(&req, Origin::Local, now)
    }

    /// Opens a file: GETs it from the attic into a local copy.
    /// With `create`, a missing file opens as empty.
    ///
    /// # Errors
    ///
    /// [`DriverError::NotFound`] (without `create`) or a mapped remote
    /// error.
    pub fn open(&mut self, path: &str, create: bool, now: SimTime) -> Result<Fd, DriverError> {
        let resp = self.send(Request::get(self.endpoint.with_path(path)), now);
        self.stats.gets += 1;
        let (local_copy, etag) = match resp.status {
            StatusCode::OK => (
                resp.body.to_vec(),
                resp.headers.get("etag").unwrap_or_default().to_owned(),
            ),
            StatusCode::NOT_FOUND if create => (Vec::new(), String::new()),
            StatusCode::NOT_FOUND => return Err(DriverError::NotFound),
            StatusCode::LOCKED => return Err(DriverError::Locked),
            s => return Err(DriverError::Remote(s.0)),
        };
        self.next_fd += 1;
        let fd = Fd(self.next_fd);
        self.open_files.insert(
            fd,
            OpenFile {
                path: path.to_owned(),
                local_copy,
                etag,
                dirty: false,
            },
        );
        Ok(fd)
    }

    /// Reads the whole local copy (applications then seek within it).
    ///
    /// # Errors
    ///
    /// [`DriverError::BadFd`] for unknown descriptors.
    pub fn read(&mut self, fd: Fd) -> Result<&[u8], DriverError> {
        self.stats.local_reads += 1;
        self.open_files
            .get(&fd)
            .map(|f| f.local_copy.as_slice())
            .ok_or(DriverError::BadFd)
    }

    /// Replaces the local copy's contents (no network traffic).
    ///
    /// # Errors
    ///
    /// [`DriverError::BadFd`] for unknown descriptors.
    pub fn write(&mut self, fd: Fd, data: &[u8]) -> Result<(), DriverError> {
        let f = self.open_files.get_mut(&fd).ok_or(DriverError::BadFd)?;
        f.local_copy = data.to_vec();
        f.dirty = true;
        self.stats.local_writes += 1;
        Ok(())
    }

    /// Closes the file: a dirty copy is PUT back to the attic
    /// (`If-Match` guards against concurrent remote modification).
    ///
    /// # Errors
    ///
    /// [`DriverError::Locked`] if the attic refuses (lock or lost-update
    /// conflict), mapped remote errors otherwise.
    pub fn close(&mut self, fd: Fd, now: SimTime) -> Result<(), DriverError> {
        let f = self.open_files.remove(&fd).ok_or(DriverError::BadFd)?;
        if !f.dirty {
            return Ok(());
        }
        let mut req = Request::put(self.endpoint.with_path(&f.path), f.local_copy);
        if !f.etag.is_empty() {
            req = req.with_header("if-match", f.etag.clone());
        }
        let resp = self.send(req, now);
        self.stats.puts += 1;
        match resp.status {
            StatusCode::CREATED | StatusCode::NO_CONTENT => Ok(()),
            StatusCode::LOCKED | StatusCode::PRECONDITION_FAILED => Err(DriverError::Locked),
            s => Err(DriverError::Remote(s.0)),
        }
    }

    /// Round-trip counters.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::VolatileBackend;
    use hpop_core::auth::TokenVerifier;

    fn setup() -> (Rc<RefCell<DavCore>>, FileDriver) {
        let attic = Rc::new(RefCell::new(DavCore::new(
            VolatileBackend::new(),
            TokenVerifier::new([1u8; 32]),
        )));
        let driver = FileDriver::new(attic.clone(), Url::https("attic.home", "/"));
        (attic, driver)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn open_edit_close_pushes_back() {
        let (attic, mut d) = setup();
        attic
            .borrow_mut()
            .backend_mut()
            .store
            .put("/doc.txt", "original", t(0))
            .unwrap();
        let fd = d.open("/doc.txt", false, t(1)).unwrap();
        assert_eq!(d.read(fd).unwrap(), b"original");
        d.write(fd, b"edited locally").unwrap();
        d.write(fd, b"edited locally twice").unwrap();
        d.close(fd, t(2)).unwrap();
        assert_eq!(
            &attic.borrow().backend().store.get("/doc.txt").unwrap().body[..],
            b"edited locally twice"
        );
        // One GET, one PUT — edits in between were free.
        let s = d.stats();
        assert_eq!((s.gets, s.puts, s.local_writes), (1, 1, 2));
    }

    #[test]
    fn clean_close_skips_the_put() {
        let (attic, mut d) = setup();
        attic
            .borrow_mut()
            .backend_mut()
            .store
            .put("/doc.txt", "x", t(0))
            .unwrap();
        let fd = d.open("/doc.txt", false, t(1)).unwrap();
        let _ = d.read(fd).unwrap();
        d.close(fd, t(2)).unwrap();
        assert_eq!(d.stats().puts, 0);
    }

    #[test]
    fn create_opens_missing_files_empty() {
        let (attic, mut d) = setup();
        assert_eq!(d.open("/new.txt", false, t(0)), Err(DriverError::NotFound));
        let fd = d.open("/new.txt", true, t(0)).unwrap();
        assert_eq!(d.read(fd).unwrap(), b"");
        d.write(fd, b"fresh").unwrap();
        d.close(fd, t(1)).unwrap();
        assert!(attic.borrow().backend().store.exists("/new.txt"));
    }

    #[test]
    fn concurrent_remote_edit_detected_on_close() {
        let (attic, mut d) = setup();
        attic
            .borrow_mut()
            .backend_mut()
            .store
            .put("/doc.txt", "v1", t(0))
            .unwrap();
        let fd = d.open("/doc.txt", false, t(1)).unwrap();
        d.write(fd, b"mine").unwrap();
        // Someone else writes meanwhile.
        attic
            .borrow_mut()
            .backend_mut()
            .store
            .put("/doc.txt", "theirs", t(2))
            .unwrap();
        assert_eq!(d.close(fd, t(3)), Err(DriverError::Locked));
        // The attic kept the other writer's version (no lost update).
        assert_eq!(
            &attic.borrow().backend().store.get("/doc.txt").unwrap().body[..],
            b"theirs"
        );
    }

    #[test]
    fn bad_fd_is_reported() {
        let (_, mut d) = setup();
        assert_eq!(d.read(Fd(99)), Err(DriverError::BadFd));
        assert_eq!(d.write(Fd(99), b"x"), Err(DriverError::BadFd));
        assert_eq!(d.close(Fd(99), t(0)), Err(DriverError::BadFd));
    }
}
