//! Fabric selection: which transport backend a consumer should build.
//!
//! [`FabricKind`] names the two fabrics (instant sim, virtual-time
//! evented) and [`configure_global_fabric`] installs a process-wide
//! default, mirroring `arboretum-par`'s global thread configuration: the
//! first call wins and later calls are ignored, so a CLI flag set at
//! startup reaches every component without threading a parameter
//! through each layer.
//!
//! Resolution order everywhere a fabric is chosen:
//! explicit per-config value → global default → the consumer's own
//! fallback.

use std::sync::OnceLock;

/// Which transport fabric to run committee traffic on.
///
/// Both fabrics implement the same `Transport` trait and the same
/// metering contract: byte/round totals and typed failure outcomes are
/// bitwise identical across them at any population.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FabricKind {
    /// The instant in-process fabric (`sim`): dense per-link
    /// queues, immediate delivery, no clock.
    Sim,
    /// The event-driven fabric (`evented`): virtual-time scheduling of
    /// modeled delays, sparse link queues, pooled frame buffers —
    /// scales to 10^5–10^6 simulated parties in one process.
    Evented,
}

impl FabricKind {
    /// All variants, in CLI order.
    pub const ALL: [FabricKind; 2] = [FabricKind::Sim, FabricKind::Evented];

    /// The CLI name of this fabric.
    pub fn name(self) -> &'static str {
        match self {
            Self::Sim => "sim",
            Self::Evented => "evented",
        }
    }

    /// Resolves the fabric a consumer should use: an explicit config
    /// value wins, then the process-wide default installed by
    /// [`configure_global_fabric`], then `fallback`.
    pub fn resolve(explicit: Option<FabricKind>, fallback: FabricKind) -> FabricKind {
        explicit.or_else(global_fabric).unwrap_or(fallback)
    }
}

impl std::fmt::Display for FabricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for FabricKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "sim" => Ok(Self::Sim),
            "evented" => Ok(Self::Evented),
            other => Err(format!("unknown fabric {other:?}; expected sim | evented")),
        }
    }
}

static GLOBAL_FABRIC: OnceLock<FabricKind> = OnceLock::new();

/// Installs the process-wide default fabric. The first call wins;
/// returns whether this call installed the value.
pub fn configure_global_fabric(kind: FabricKind) -> bool {
    GLOBAL_FABRIC.set(kind).is_ok()
}

/// The process-wide default fabric, if one has been installed.
pub fn global_fabric() -> Option<FabricKind> {
    GLOBAL_FABRIC.get().copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cli_names() {
        assert_eq!("sim".parse(), Ok(FabricKind::Sim));
        assert_eq!(" Evented ".parse(), Ok(FabricKind::Evented));
        for bad in ["threaded", "Threaded", "tcp"] {
            let err = bad.parse::<FabricKind>().unwrap_err();
            assert!(err.ends_with("expected sim | evented"), "{err}");
        }
    }

    #[test]
    fn display_round_trips() {
        for k in FabricKind::ALL {
            assert_eq!(k.to_string().parse::<FabricKind>(), Ok(k));
        }
    }

    #[test]
    fn resolve_prefers_explicit_over_fallback() {
        // The global default is a process-wide OnceLock, so this test
        // only exercises the explicit/fallback arms (other tests in the
        // process may or may not have installed a global).
        assert_eq!(
            FabricKind::resolve(Some(FabricKind::Evented), FabricKind::Sim),
            FabricKind::Evented
        );
    }
}
