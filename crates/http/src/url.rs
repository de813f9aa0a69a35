//! A minimal URL type: `scheme://host[:port]/path`.
//!
//! Deliberately tiny — the services only need scheme/host/path routing
//! and stable string forms for cache keys and wrapper-page object maps.

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// A parsed absolute URL.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Url {
    /// Borrowed for `http` and `https`, so most URLs allocate no
    /// scheme; it hashes, compares and prints as the text either way.
    scheme: Cow<'static, str>,
    /// Shared, so a request's `Host` header is this text rather than a
    /// copy of it, and a clone copies no host.
    host: Arc<str>,
    port: Option<u16>,
    path: String,
}

/// Error parsing a URL.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ParseUrlError;

impl fmt::Display for ParseUrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid URL syntax")
    }
}

impl std::error::Error for ParseUrlError {}

/// `scheme`, borrowed when it is one of the two the services speak.
fn scheme_of(scheme: &str) -> Cow<'static, str> {
    match scheme {
        "http" => Cow::Borrowed("http"),
        "https" => Cow::Borrowed("https"),
        other => Cow::Owned(other.to_owned()),
    }
}

impl Url {
    /// Builds a URL from parts; the path is normalized to start with `/`.
    ///
    /// # Panics
    ///
    /// Panics if `scheme` or `host` is empty.
    pub fn new(scheme: &str, host: &str, path: &str) -> Url {
        Url::with_shared_host(scheme, Arc::from(host), path)
    }

    /// [`Url::new`] over a host already shared with another owner (a
    /// decoded request's `Host` header).
    pub(crate) fn with_shared_host(scheme: &str, host: Arc<str>, path: &str) -> Url {
        assert!(!scheme.is_empty(), "empty scheme");
        assert!(!host.is_empty(), "empty host");
        let path = if path.starts_with('/') {
            path.to_owned()
        } else {
            format!("/{path}")
        };
        Url {
            scheme: scheme_of(scheme),
            host,
            port: None,
            path,
        }
    }

    /// Convenience: an `https` URL.
    pub fn https(host: &str, path: &str) -> Url {
        Url::new("https", host, path)
    }

    /// Convenience: an `http` URL.
    pub fn http(host: &str, path: &str) -> Url {
        Url::new("http", host, path)
    }

    /// The scheme (`http`, `https`).
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// The host name.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The host name, shared rather than copied.
    pub(crate) fn shared_host(&self) -> Arc<str> {
        Arc::clone(&self.host)
    }

    /// The explicit port, if any.
    pub fn port(&self) -> Option<u16> {
        self.port
    }

    /// The absolute path (always begins with `/`).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Returns a copy with a different path.
    pub fn with_path(&self, path: &str) -> Url {
        let mut u = self.clone();
        u.path = if path.starts_with('/') {
            path.to_owned()
        } else {
            format!("/{path}")
        };
        u
    }

    /// Returns a copy with an explicit port.
    pub fn with_port(&self, port: u16) -> Url {
        let mut u = self.clone();
        u.port = Some(port);
        u
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.port {
            Some(p) => write!(f, "{}://{}:{}{}", self.scheme, self.host, p, self.path),
            None => write!(f, "{}://{}{}", self.scheme, self.host, self.path),
        }
    }
}

impl FromStr for Url {
    type Err = ParseUrlError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (scheme, rest) = s.split_once("://").ok_or(ParseUrlError)?;
        if scheme.is_empty() {
            return Err(ParseUrlError);
        }
        let (authority, path) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        if authority.is_empty() {
            return Err(ParseUrlError);
        }
        let (host, port) = match authority.split_once(':') {
            Some((h, p)) => {
                if h.is_empty() {
                    return Err(ParseUrlError);
                }
                (h, Some(p.parse::<u16>().map_err(|_| ParseUrlError)?))
            }
            None => (authority, None),
        };
        Ok(Url {
            scheme: scheme_of(scheme),
            host: Arc::from(host),
            port,
            path: path.to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        for s in [
            "https://example.com/",
            "http://attic.home:8443/records/2026.json",
            "https://nytimes.example/index.html",
        ] {
            let u: Url = s.parse().unwrap();
            assert_eq!(u.to_string(), s);
        }
    }

    #[test]
    fn bare_host_gets_root_path() {
        let u: Url = "https://example.com".parse().unwrap();
        assert_eq!(u.path(), "/");
        assert_eq!(u.to_string(), "https://example.com/");
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in ["", "nocolon", "://x/", "http://", "http://h:notaport/"] {
            assert!(s.parse::<Url>().is_err(), "{s} parsed");
        }
    }

    #[test]
    fn constructors_normalize_path() {
        let u = Url::https("h", "a/b");
        assert_eq!(u.path(), "/a/b");
        assert_eq!(u.with_path("x").path(), "/x");
        assert_eq!(u.with_port(81).port(), Some(81));
    }

    /// The two common schemes are borrowed, any other is kept; the
    /// text is what hashes, compares and prints either way.
    #[test]
    fn schemes_borrow_or_keep() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |u: &Url| {
            let mut state = DefaultHasher::new();
            u.hash(&mut state);
            state.finish()
        };
        let u: Url = "ftp://h/x".parse().unwrap();
        assert!(matches!(u.scheme, Cow::Owned(_)));
        let borrowed = Url::https("h", "/x");
        assert!(matches!(borrowed.scheme, Cow::Borrowed("https")));
        let owned = Url {
            scheme: Cow::Owned("https".to_owned()),
            ..borrowed.clone()
        };
        assert_eq!(owned, borrowed);
        assert_eq!(hash(&owned), hash(&borrowed));
        assert_eq!(owned.to_string(), borrowed.to_string());
        assert!(Url::http("h", "/x") < Url::https("a", "/a"));
    }

    #[test]
    fn accessors() {
        let u: Url = "https://cdn.example:444/obj/1".parse().unwrap();
        assert_eq!(u.scheme(), "https");
        assert_eq!(u.host(), "cdn.example");
        assert_eq!(u.port(), Some(444));
        assert_eq!(u.path(), "/obj/1");
    }
}
