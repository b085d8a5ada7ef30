//! # aequus-services
//!
//! The Aequus distributed service layer (Figure 2 of the paper): per-site
//! instances of
//!
//! * [`pds::Pds`] — Policy Distribution Service (policy management and
//!   cross-PDS sub-policy mounting),
//! * [`uss::Uss`] — Usage Statistics Service (per-job ingestion, per-user
//!   histograms, compact cross-site exchange),
//! * [`ums::Ums`] — Usage Monitoring Service (pre-computed usage trees with
//!   a refresh cache),
//! * [`fcs::Fcs`] — Fairshare Calculation Service (periodic pre-computation
//!   of fairshare trees and projected factors; queries are O(log n) lookups),
//! * [`irs::Irs`] — Identity Resolution Service (reverse system-user → grid
//!   identity mapping via look-up table or site endpoint),
//!
//! plus [`libaequus::LibAequus`], the client library local resource managers
//! link against, and [`site::AequusSite`], the fully wired per-site stack.
//!
//! The paper's Java Web services communicated over SOAP/HTTP; here the
//! services are in-process state machines advanced by explicit timestamps,
//! with every delay of the §IV-A-2 chain modeled as an explicit
//! [`timings::ServiceTimings`] parameter (see DESIGN.md, substitutions).

#![warn(missing_docs)]

pub mod fcs;
pub mod health;
pub mod irs;
pub mod libaequus;
pub mod message;
pub mod overlay;
pub mod participation;
pub mod pds;
pub mod reliability;
pub mod site;
pub mod timings;
mod tracer;
pub mod ums;
pub mod uss;

pub use fcs::Fcs;
pub use health::{DepthReport, HealthMap, HealthReport, LinkObservation, LinkReport, LinkSide};
pub use irs::Irs;
pub use libaequus::LibAequus;
pub use message::UssMessage;
pub use overlay::OverlayTopology;
pub use participation::ParticipationMode;
pub use pds::Pds;
pub use reliability::{JitterRng, RetryPolicy, StalePolicy};
pub use site::{AequusSite, Provenance};
pub use timings::ServiceTimings;
pub use ums::Ums;
pub use uss::{RecoveryError, Uss};

// Durable-store types downstream layers (sim, bench) configure and report.
pub use aequus_store::{StoreConfig, StoreStats};
