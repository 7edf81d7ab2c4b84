//! Shared helpers for integration tests.

pub mod exact;
