//! Row chunking.
//!
//! Acamar processes coefficient matrices in `4096 x 4096` chunks (paper
//! Section V-B/V-C): the SpMV engine streams the matrix one row-chunk at a
//! time, and the Row Length Trace / sampling-rate machinery operates within
//! each chunk. The core's Fine-grained Reconfiguration unit tiles its row
//! trace with `AcamarConfig::chunk_rows`, whose paper default is this
//! value. Chunks are a planning unit, not a unit of host threading: every
//! sparse kernel runs serially within one solve.

/// The paper's fixed problem-chunk dimension.
pub const PAPER_CHUNK_ROWS: usize = 4096;
