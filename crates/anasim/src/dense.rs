//! Dense linear algebra for the MNA solver.
//!
//! The matrix type lives in [`linsys::matrix`]; this module re-exports
//! it for the AC sweep and the MNA stamps.

pub use linsys::matrix::Matrix;
