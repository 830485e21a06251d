//! [`TestRng`], the workspace's seeded test RNG: every property suite, the
//! workload generator and the repo benchmark draw from it.

pub mod testrng;

pub use testrng::TestRng;
