//! # pss-metrics
//!
//! Measurement and reporting utilities shared by the experiment harness:
//! per-algorithm result records, competitive-ratio summaries, and plain-text
//! / Markdown / JSON table rendering used to produce the tables recorded in
//! `EXPERIMENTS.md`.
//!
//! All text output shares one strict, total, hand-rolled JSON tree
//! ([`json::JsonValue`] — the offline build has no serde), and
//! [`service::ServiceSummary`] (the flat summary of a `pss-serve`
//! multi-tenant ingestion run: per-tenant admission counts, queue depths,
//! the dual-price trace, drain/hand-off latencies) exports through it,
//! every value parsing back bit-exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod csv;
pub mod json;
pub mod report;
pub mod service;
pub mod table;

pub use csv::table_to_csv;
pub use json::{JsonError, JsonValue};
pub use report::{evaluate_scheduler, AlgorithmResult, RatioSummary};
pub use service::{DrainSummary, ServiceSummary, ShardSummary, TenantSummary};
pub use table::Table;
