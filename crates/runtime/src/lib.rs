#![deny(missing_docs)]
//! Host runtime for the NetPU-M accelerator.
//!
//! Models everything outside the programmable logic that the paper's
//! measurements include:
//!
//! * [`dma`] — the DMA / Processing System transfer path (the constant
//!   ≈6 µs gap between Table V simulation and Table VI measurement).
//! * [`power`] — the wall-power model behind Table VI's `P_wall`.
//! * [`driver`] — the host driver: a unified [`Driver::run`] request
//!   API (single / batch / burst / pre-compiled loadable payloads),
//!   with batch-inference input-section reuse.
//! * [`cluster`] — multi-FPGA deployment throughput (the §I.B
//!   multi-board application scenario).
//! * [`admission`] — the content-keyed admission cache every clone of
//!   a [`Driver`] shares, so a repeated stream is admitted once.
//! * [`lru`] — the workspace's one byte-budgeted LRU, behind both the
//!   admission cache and the `netpu-fleet` compiled-model cache.

pub mod admission;
pub mod cluster;
pub mod dma;
pub mod driver;
pub mod lru;
pub mod power;

pub use admission::{AdmissionCacheStats, ADMISSION_CACHE_BYTES};
pub use cluster::{Cluster, ClusterThroughput};
pub use dma::DmaModel;
pub use driver::{
    Driver, DriverBuilder, DriverError, InferPayload, InferRequest, InferResponse, MeasuredRun,
    ModelSource, RequestOptions,
};
pub use lru::{Admit, LruCore};
pub use netpu_check::{AdmissionVerdict, RejectReason};
pub use netpu_trace::TraceSink;
pub use power::PowerParams;
