//! Round-robin reseed arbitration with bounded per-session credits.
//!
//! Raw entropy is the scarce resource of the whole service: every DRBG
//! session expands it ~2700x, but the *harvests* that feed those
//! expansions all drain the same conditioned stream. The arbiter
//! decides whose harvest runs next:
//!
//! * **FIFO queue = round-robin.** Sessions enqueue when they need a
//!   reseed and are served strictly in arrival order, so under
//!   contention every session's reseeds interleave instead of one hot
//!   session monopolising the source.
//! * **Bounded credits = backpressure.** Each session holds at most
//!   `DEFAULT_RESEED_CREDITS` credits (or its session's own bound); a
//!   harvest spends one, and a credit is earned back for every round
//!   *other* sessions advance. A session that reseeds faster than its
//!   fair share runs dry and is demoted to the back of the queue once
//!   per request ([`Turn::Demote`]) — or, in fail-fast mode, told
//!   [`Backpressure`](crate::Error::Backpressure) outright.
//!
//! The demotion fires at most once per request (the caller tracks the
//! `demoted` flag), so a dry session is delayed by exactly one queue
//! lap, never starved: the policy is deadlock-free by construction.
//! The arbiter itself is just the bookkeeping; blocking and wake-ups
//! live in `api.rs` (a `Condvar` over the source's shared state).

use std::collections::VecDeque;

/// What a session at some queue position should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Turn {
    /// Not at the front yet: block until the queue moves.
    Wait,
    /// At the front with credit (or already demoted once): harvest now.
    Serve,
    /// At the front, out of credits, with sessions waiting behind: go
    /// to the back of the queue and let them pass (once per request).
    Demote,
}

/// FIFO reseed queue plus the served-round counter credits are earned
/// against.
#[derive(Debug, Default)]
pub(crate) struct ReseedArbiter {
    /// Session ids awaiting a harvest, front = next to serve.
    queue: VecDeque<u64>,
    /// Total harvests served; sessions earn credits as this advances.
    rounds: u64,
}

impl ReseedArbiter {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Total harvests served so far.
    pub(crate) fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Sessions currently queued for a harvest.
    pub(crate) fn contenders(&self) -> usize {
        self.queue.len()
    }

    /// Joins the queue (idempotent: a session already queued keeps its
    /// position).
    pub(crate) fn enqueue(&mut self, id: u64) {
        if !self.queue.contains(&id) {
            self.queue.push_back(id);
        }
    }

    /// What session `id` (holding `credits`, already demoted this
    /// request or not) should do now.
    pub(crate) fn turn(&self, id: u64, credits: u32, demoted: bool) -> Turn {
        if self.queue.front() != Some(&id) {
            Turn::Wait
        } else if credits == 0 && self.queue.len() > 1 && !demoted {
            Turn::Demote
        } else {
            Turn::Serve
        }
    }

    /// Moves the front session to the back (it was out of credits).
    pub(crate) fn demote(&mut self, id: u64) {
        debug_assert_eq!(self.queue.front(), Some(&id), "demote out of turn");
        if self.queue.front() == Some(&id) {
            self.queue.rotate_left(1);
        }
    }

    /// Marks the front session's harvest complete and advances the
    /// round counter.
    pub(crate) fn served(&mut self, id: u64) {
        debug_assert_eq!(self.queue.front(), Some(&id), "served out of turn");
        self.queue.retain(|&q| q != id);
        self.rounds += 1;
    }

    /// Withdraws a session from the queue without serving it (the
    /// source died while it waited).
    pub(crate) fn remove(&mut self, id: u64) {
        self.queue.retain(|&q| q != id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_round_robin() {
        let mut a = ReseedArbiter::new();
        a.enqueue(7);
        a.enqueue(3);
        a.enqueue(9);
        assert_eq!(a.turn(3, 1, false), Turn::Wait);
        assert_eq!(a.turn(7, 1, false), Turn::Serve);
        a.served(7);
        assert_eq!(a.rounds(), 1);
        assert_eq!(a.turn(3, 1, false), Turn::Serve);
        a.served(3);
        assert_eq!(a.turn(9, 1, false), Turn::Serve);
        a.served(9);
        assert_eq!(a.contenders(), 0);
        assert_eq!(a.rounds(), 3);
    }

    #[test]
    fn zero_credit_front_is_demoted_once_then_served() {
        let mut a = ReseedArbiter::new();
        a.enqueue(1);
        a.enqueue(2);
        // Out of credits with a contender behind: step aside once.
        assert_eq!(a.turn(1, 0, false), Turn::Demote);
        a.demote(1);
        assert_eq!(a.turn(2, 0, false), Turn::Demote);
        a.demote(2);
        // Both demoted: the demoted flag guarantees progress.
        assert_eq!(a.turn(1, 0, true), Turn::Serve);
        a.served(1);
        assert_eq!(a.turn(2, 0, true), Turn::Serve);
    }

    #[test]
    fn sole_contender_never_demotes() {
        let mut a = ReseedArbiter::new();
        a.enqueue(5);
        assert_eq!(a.turn(5, 0, false), Turn::Serve);
    }

    #[test]
    fn enqueue_is_idempotent_and_remove_withdraws() {
        let mut a = ReseedArbiter::new();
        a.enqueue(1);
        a.enqueue(1);
        a.enqueue(2);
        assert_eq!(a.contenders(), 2);
        a.remove(1);
        assert_eq!(a.contenders(), 1);
        assert_eq!(a.turn(2, 1, false), Turn::Serve);
        assert_eq!(a.rounds(), 0, "removal serves nothing");
    }
}
