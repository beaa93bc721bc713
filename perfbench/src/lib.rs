//! End-to-end benchmark of the BestPeer++ query path.
//!
//! The library half holds the pieces the benchmark binary is built
//! from and that its tests check on their own: CPU clocks ([`cpu`]),
//! machine-speed calibration ([`calib`]),
//! seeded input generators ([`gen`]), the answer oracle ([`oracle`]),
//! order statistics ([`stats`]) and span recording ([`trace`]). See
//! `README.md` beside this crate for how to run it.

pub mod calib;
pub mod cpu;
pub mod gen;
pub mod oracle;
pub mod stats;
pub mod trace;
