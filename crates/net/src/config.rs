//! The inert fabric selector the end-to-end benchmark still names.
//!
//! Every MPC engine runs on the evented fabric; there is nothing left
//! to select. [`FabricKind`] and [`FabricKind::resolve`] remain only
//! because `benchmark/` calls them by name, and ROADMAP item 1b deletes
//! them together with those calls.

/// Selects nothing: every engine runs on `EventedFabric` (deleted by ROADMAP 1b).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FabricKind {
    /// Selects nothing (deleted by ROADMAP 1b).
    Sim,
    /// Selects nothing (deleted by ROADMAP 1b).
    Evented,
}

impl FabricKind {
    /// Returns `explicit`, else `fallback`; selects nothing (deleted by ROADMAP 1b).
    pub fn resolve(explicit: Option<FabricKind>, fallback: FabricKind) -> FabricKind {
        explicit.unwrap_or(fallback)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_prefers_explicit_over_fallback() {
        assert_eq!(
            FabricKind::resolve(Some(FabricKind::Evented), FabricKind::Sim),
            FabricKind::Evented
        );
        assert_eq!(FabricKind::resolve(None, FabricKind::Sim), FabricKind::Sim);
    }
}
