//! # nodb-stats — on-the-fly statistics (paper §3.3)
//!
//! Conventional optimizers build statistics *after load*; PostgresRaw
//! "extends the scan operator to create statistics on-the-fly", only on
//! requested attributes, incrementally augmented as queries touch more of
//! the file. This crate provides:
//!
//! * [`sample::BottomK`] — bottom-k sampling by row hash, the "sample of
//!   the data" handed to the statistics routines;
//! * [`ndv::DistinctCounter`] — linear-counting distinct-value estimation;
//! * [`histogram::EquiDepthHistogram`] — equi-depth histograms built from
//!   the sample, used for range selectivity;
//! * [`attr::AttrStats`] — per-attribute accumulator (min/max, null count,
//!   NDV, sample) fed by the scan, mergeable across disjoint row sets;
//! * [`table::TableStats`] — the per-file registry the optimizer consults,
//!   with the [`estimate::SelectivityEstimator`] trait and the
//!   [`estimate::PredicateSketch`] vocabulary shared with the engine.
//!
//! Everything here is deterministic given the *set* of observed rows: no
//! component depends on arrival order (the sample is keyed by a hash of the
//! row id), so parallel partitions summarise their rows independently and
//! the merged state equals a sequential scan's.

pub mod attr;
pub mod estimate;
pub mod histogram;
pub mod ndv;
pub mod sample;
pub mod table;

pub use attr::{AttrStats, AttrStatsState};
pub use estimate::{PredicateSketch, SelectivityEstimator};
pub use histogram::EquiDepthHistogram;
pub use ndv::DistinctCounter;
pub use sample::BottomK;
pub use table::{TableStats, TableStatsState};
