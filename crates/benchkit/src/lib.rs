//! [`TestRng`], the workspace's seeded test RNG: every property suite, the
//! workload generator and the repo benchmark draw from it.

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod testrng;

pub use testrng::TestRng;
