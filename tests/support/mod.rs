//! Shared test-only support for the integration tests.

pub mod podem_oracle;
