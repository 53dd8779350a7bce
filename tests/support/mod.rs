//! Shared test-only support for the integration tests.
//!
//! Each test binary uses only some of these oracles.
#![allow(dead_code)]

pub mod bench_oracle;
pub mod collapse_oracle;
pub mod podem_oracle;
