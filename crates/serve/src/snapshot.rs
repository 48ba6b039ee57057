//! The types named by [`crate::Router::save_state`] and
//! [`crate::Router::load_state`].
//!
//! Runs are not frozen to bytes: a fixed seed reproduces a run bit for
//! bit, so re-running it is the checkpoint. All three types are
//! uninhabited. No value of them can exist, so neither hook can ever be
//! called; the hooks remain only so that routers which forward them
//! still compile.

use std::convert::Infallible;
use std::marker::PhantomData;

/// A snapshot writer. Uninhabited.
#[derive(Debug)]
pub enum SnapshotWriter {}

/// A snapshot reader over borrowed bytes. Uninhabited.
#[derive(Debug)]
pub enum SnapshotReader<'a> {
    #[doc(hidden)]
    Never(Infallible, PhantomData<&'a [u8]>),
}

/// Why a snapshot could not be restored. Uninhabited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {}
