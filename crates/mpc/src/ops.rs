//! The engine-operations trait shared by the analytic simulator and the
//! distributed per-party engine.
//!
//! The comparison and argmax protocols in [`crate::compare`] are written
//! against this trait, so the same protocol code runs in two worlds:
//! [`crate::engine::MpcEngine`] (one object animating all parties, costs
//! metered analytically) and [`crate::party::Party`] (one object per OS
//! thread, messages on a real [`arboretum_net::Transport`]). That shared
//! code path is what makes measured-vs-modeled cost validation exact —
//! both worlds issue the identical sequence of communication steps.

use arboretum_field::FGold;

use crate::engine::MpcError;

/// Secret-shared arithmetic as seen by protocol code.
///
/// `Secret` is whatever the engine uses to hold one shared field
/// element: the full share vector for the simulator, this party's single
/// share for a distributed engine.
pub trait MpcOps {
    /// One secret-shared field element.
    type Secret: Clone;

    /// Number of parties in the committee.
    fn parties(&self) -> usize;

    /// Secret-shares `v` contributed by `party` (one communication
    /// round; distributed engines ignore `v` unless they are `party`).
    ///
    /// # Errors
    ///
    /// Returns [`MpcError`] on transport failure.
    fn input(&mut self, party: usize, v: FGold) -> Result<Self::Secret, MpcError>;

    /// The sharing of zero.
    fn zero(&self) -> Self::Secret;

    /// A public constant as a (degenerate) sharing.
    fn constant(&self, c: FGold) -> Self::Secret;

    /// Local addition of shares.
    fn add(&self, a: &Self::Secret, b: &Self::Secret) -> Self::Secret;

    /// Local subtraction.
    fn sub(&self, a: &Self::Secret, b: &Self::Secret) -> Self::Secret;

    /// Local addition of a public constant.
    fn add_const(&self, a: &Self::Secret, c: FGold) -> Self::Secret;

    /// Local multiplication by a public constant.
    fn mul_const(&self, a: &Self::Secret, c: FGold) -> Self::Secret;

    /// Local `acc += c · x`, in place: how protocols sum linear
    /// combinations without a fresh sharing per term.
    fn add_scaled(&self, acc: &mut Self::Secret, c: FGold, x: &Self::Secret);

    /// Dealer-supplied shared random bits (preprocessing material).
    ///
    /// # Errors
    ///
    /// Returns [`MpcError`] on transport or dealer failure.
    fn random_bits(&mut self, k: usize) -> Result<Vec<Self::Secret>, MpcError>;

    /// Multiplies batches of pairs with Beaver triples, one batched
    /// round trip for all masked openings.
    ///
    /// # Errors
    ///
    /// Returns [`MpcError`] on opening or transport failure.
    fn mul_batch(
        &mut self,
        pairs: &[(&Self::Secret, &Self::Secret)],
    ) -> Result<Vec<Self::Secret>, MpcError>;

    /// Opens (publicly reconstructs) a batch of shared values.
    ///
    /// # Errors
    ///
    /// Returns [`MpcError`] on reconstruction or transport failure.
    fn open_batch(&mut self, xs: &[&Self::Secret]) -> Result<Vec<FGold>, MpcError>;

    /// Opens a single value.
    ///
    /// # Errors
    ///
    /// Returns [`MpcError`] on reconstruction or transport failure.
    fn open(&mut self, x: &Self::Secret) -> Result<FGold, MpcError> {
        Ok(self.open_batch(&[x])?[0])
    }

    /// Multiplies two shared values.
    ///
    /// # Errors
    ///
    /// Returns [`MpcError`] on opening or transport failure.
    fn mul(&mut self, a: &Self::Secret, b: &Self::Secret) -> Result<Self::Secret, MpcError> {
        Ok(self.mul_batch(&[(a, b)])?.remove(0))
    }
}
