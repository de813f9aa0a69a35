//! The health-records exemplar (§IV-A "Case Study: Health Records").
//!
//! "The health record system at each provider would interact with each
//! person's data attic … each provider would retain a copy of the data
//! to satisfy regulatory requirements. Therefore, the storage driver at
//! the provider's site would duplicate writes to both local copy and the
//! patient's remote attic."
//!
//! [`MedicalProvider`] is that provider-side system: enrollment consumes
//! the QR grant, and every record write is duplicated — local (for
//! regulation) and remote (to the patient's attic). [`aggregate_history`]
//! is the patient-side view: the complete cross-provider history in one
//! place, the capability the paper says today's siloed records deny.

use crate::grant::AccessGrant;
use crate::ports::Origin;
use crate::webdav::DavCore;
use hpop_http::message::{Method, Request, StatusCode};
use hpop_netsim::time::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// A medical record as the provider generates it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealthRecord {
    /// Record id within the provider (`"visit-2026-07-06"`).
    pub id: String,
    /// Record body (the paper's records are opaque documents).
    pub body: String,
}

/// Errors surfacing from the provider's attic interactions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProviderError {
    /// The patient's attic rejected the write (expired/revoked grant …).
    AtticRejected(u16),
    /// The patient is not enrolled.
    NotEnrolled,
}

impl std::fmt::Display for ProviderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProviderError::AtticRejected(s) => write!(f, "patient attic rejected write ({s})"),
            ProviderError::NotEnrolled => write!(f, "patient not enrolled"),
        }
    }
}

impl std::error::Error for ProviderError {}

struct Enrollment {
    grant: AccessGrant,
    attic: Rc<RefCell<DavCore>>,
}

/// A provider's record system, dual-writing to patients' attics.
pub struct MedicalProvider {
    name: String,
    /// Regulatory local copies: patient → records.
    local_records: BTreeMap<String, Vec<HealthRecord>>,
    enrollments: BTreeMap<String, Enrollment>,
}

impl std::fmt::Debug for MedicalProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MedicalProvider")
            .field("name", &self.name)
            .field("patients", &self.enrollments.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl MedicalProvider {
    /// Creates a provider.
    pub fn new(name: impl Into<String>) -> MedicalProvider {
        MedicalProvider {
            name: name.into(),
            local_records: BTreeMap::new(),
            enrollments: BTreeMap::new(),
        }
    }

    /// The provider's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Enrolls a patient by scanning their QR grant. In the simulation
    /// the attic handle stands in for the network connection the
    /// endpoint URL names; the grant still authorizes every request.
    pub fn enroll(
        &mut self,
        patient: &str,
        grant_payload: &str,
        attic: Rc<RefCell<DavCore>>,
        now: SimTime,
    ) -> Result<(), ProviderError> {
        let grant = AccessGrant::decode(grant_payload).ok_or(ProviderError::AtticRejected(400))?;
        // Create the provider's collection in the patient's attic.
        let mkcol = Request::new(Method::MkCol, grant.endpoint.with_path(grant.path()))
            .with_header("authorization", grant.authorization_header());
        let resp = attic.borrow_mut().serve(&mkcol, Origin::External, now);
        if !(resp.status == StatusCode::CREATED || resp.status == StatusCode::CONFLICT) {
            return Err(ProviderError::AtticRejected(resp.status.0));
        }
        self.enrollments
            .insert(patient.to_owned(), Enrollment { grant, attic });
        Ok(())
    }

    /// Writes a record: duplicated to the provider's regulatory copy and
    /// pushed to the patient's attic (the §IV-A dual-write driver).
    ///
    /// # Errors
    ///
    /// [`ProviderError::NotEnrolled`] or the attic's rejection. The local
    /// regulatory copy is kept even when the attic push fails (the
    /// provider retries out of band).
    pub fn add_record(
        &mut self,
        patient: &str,
        record: HealthRecord,
        now: SimTime,
    ) -> Result<(), ProviderError> {
        self.local_records
            .entry(patient.to_owned())
            .or_default()
            .push(record.clone());
        let enr = self
            .enrollments
            .get(patient)
            .ok_or(ProviderError::NotEnrolled)?;
        let path = format!("{}/{}.json", enr.grant.path(), record.id);
        let put = Request::put(enr.grant.endpoint.with_path(&path), record.body.clone())
            .with_header("authorization", enr.grant.authorization_header());
        let resp = enr.attic.borrow_mut().serve(&put, Origin::External, now);
        if resp.status.is_success() {
            Ok(())
        } else {
            Err(ProviderError::AtticRejected(resp.status.0))
        }
    }

    /// The provider's regulatory copies for a patient.
    pub fn local_copies(&self, patient: &str) -> &[HealthRecord] {
        self.local_records
            .get(patient)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// Patient-side aggregation: every record from every provider, read out
/// of the attic's `/health` tree — "the patient can provide immediate
/// access to their complete records as they see fit".
pub fn aggregate_history(attic: &DavCore, root: &str) -> Vec<(String, String)> {
    let store = &attic.backend().store;
    let mut out = Vec::new();
    for path in store.files_under(root) {
        if let Ok(v) = store.get(&path) {
            out.push((path, String::from_utf8_lossy(&v.body).into_owned()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::VolatileBackend;
    use hpop_core::auth::{Permission, TokenVerifier};
    use hpop_http::url::Url;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Builds a patient attic plus a grant payload for one provider.
    fn patient_setup(provider_slug: &str, expire_s: u64) -> (Rc<RefCell<DavCore>>, String) {
        let verifier = TokenVerifier::new([11u8; 32]);
        let mut server = DavCore::new(VolatileBackend::new(), verifier.clone());
        server.backend_mut().store.mkcol("/health").unwrap();
        let token = verifier.issue(
            provider_slug,
            &format!("/health/{provider_slug}"),
            Permission::ReadWrite,
            t(expire_s),
        );
        let grant = AccessGrant::new(Url::https("patient.hpop.example", "/"), token);
        (Rc::new(RefCell::new(server)), grant.encode())
    }

    #[test]
    fn enroll_and_dual_write() {
        let (attic, payload) = patient_setup("st-marys", 10_000);
        let mut provider = MedicalProvider::new("St. Mary's Clinic");
        provider
            .enroll("jane", &payload, attic.clone(), t(1))
            .unwrap();
        provider
            .add_record(
                "jane",
                HealthRecord {
                    id: "visit-001".into(),
                    body: "{\"bp\":\"120/80\"}".into(),
                },
                t(2),
            )
            .unwrap();
        // Local regulatory copy exists…
        assert_eq!(provider.local_copies("jane").len(), 1);
        // …and the patient's attic has the record.
        let attic = attic.borrow();
        let v = attic
            .backend()
            .store
            .get("/health/st-marys/visit-001.json")
            .unwrap();
        assert_eq!(&v.body[..], br#"{"bp":"120/80"}"#);
    }

    #[test]
    fn aggregation_spans_providers() {
        let verifier = TokenVerifier::new([11u8; 32]);
        let mut server = DavCore::new(VolatileBackend::new(), verifier.clone());
        server.backend_mut().store.mkcol("/health").unwrap();
        let attic = Rc::new(RefCell::new(server));
        for slug in ["clinic-a", "clinic-b"] {
            let token = verifier.issue(
                slug,
                &format!("/health/{slug}"),
                Permission::ReadWrite,
                t(10_000),
            );
            let grant = AccessGrant::new(Url::https("patient.hpop.example", "/"), token).encode();
            let mut p = MedicalProvider::new(slug);
            p.enroll("jane", &grant, attic.clone(), t(1)).unwrap();
            p.add_record(
                "jane",
                HealthRecord {
                    id: "r1".into(),
                    body: format!("record from {slug}"),
                },
                t(2),
            )
            .unwrap();
        }
        let history = aggregate_history(&attic.borrow(), "/health");
        assert_eq!(history.len(), 2);
        assert!(history.iter().any(|(p, _)| p.contains("clinic-a")));
        assert!(history.iter().any(|(p, _)| p.contains("clinic-b")));
    }

    #[test]
    fn revoked_grant_stops_pushes_but_keeps_local_copy() {
        let (attic, payload) = patient_setup("st-marys", 5);
        let mut provider = MedicalProvider::new("St. Mary's");
        provider
            .enroll("jane", &payload, attic.clone(), t(1))
            .unwrap();
        // The grant expires at t=5; a later write is rejected…
        let err = provider
            .add_record(
                "jane",
                HealthRecord {
                    id: "late".into(),
                    body: "x".into(),
                },
                t(10),
            )
            .unwrap_err();
        assert_eq!(err, ProviderError::AtticRejected(401));
        // …but the regulatory copy was still made.
        assert_eq!(provider.local_copies("jane").len(), 1);
    }

    #[test]
    fn unenrolled_patient_rejected() {
        let mut provider = MedicalProvider::new("St. Mary's");
        let err = provider
            .add_record(
                "ghost",
                HealthRecord {
                    id: "r".into(),
                    body: "x".into(),
                },
                t(0),
            )
            .unwrap_err();
        assert_eq!(err, ProviderError::NotEnrolled);
    }

    #[test]
    fn provider_cannot_touch_other_trees() {
        let (attic, payload) = patient_setup("st-marys", 10_000);
        let grant = AccessGrant::decode(&payload).unwrap();
        let put = Request::put(grant.endpoint.with_path("/finance/tax.pdf"), &b"snoop"[..])
            .with_header("authorization", grant.authorization_header());
        let resp = attic.borrow_mut().serve(&put, Origin::External, t(1));
        assert_eq!(resp.status, StatusCode::FORBIDDEN);
    }
}
