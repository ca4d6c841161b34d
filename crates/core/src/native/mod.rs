//! Native-execution backend: real walks over paged B+tree nodes.
//!
//! The simulator *models* walks; this module *executes* them. Indexes
//! are materialized into page-aligned block files ([`blockfile`]), one
//! encoded node per extent, and [`tree`] runs the `metal-index` B+tree
//! walk and mutation algorithm over that paged storage so datasets can
//! exceed RAM. [`backend`] drives the same request streams the
//! simulator consumes and reuses [`metal_sim::obs::Event`] so every
//! downstream consumer (traces, `analyze`, epoch series, the flight
//! recorder) works unchanged. The two backends must agree exactly on
//! semantic outcomes — `crates/verify/tests/backend_equivalence.rs` and
//! the `ix_fuzz --backend native` arm enforce that permanently.

pub mod backend;
pub mod blockfile;
pub mod tree;

pub use backend::{run_native_design, supports_native, NativeMetrics};
pub use blockfile::{BlockFile, BlockFileError, BlockStats, PAGE_BYTES};
/// The node a [`PagedTree`] stores, encoded one per block-file extent
/// (`metal-index`'s B+tree node and its codec).
pub use metal_index::bptree::Node as PagedNode;
pub use tree::{materialize_tree, PagedTree, TreeIoStats};
