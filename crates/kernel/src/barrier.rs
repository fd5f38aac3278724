//! A window barrier: `N` threads publish a frontier time, wait for one
//! another, and all read the same minimum.
//!
//! Nothing in the workspace calls it: every run executes on one thread.
//! It stays exported only because `benchmark/layers` times its round trip
//! (`kernel.barrier_us_per_sync`), and goes when that layer does.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::time::Time;

/// Each participant's published frontier, one table per round parity.
///
/// A participant that has left round `r`'s wait may publish round
/// `r + 1`'s frontier before a slower one has read round `r`'s minimum;
/// it cannot reach round `r + 2` until that one has arrived at round
/// `r + 1`, so two tables are enough for the slower reader never to see a
/// value from the wrong round.
#[derive(Debug)]
struct Frontiers {
    tables: [Vec<Option<Time>>; 2],
}

impl Frontiers {
    fn new(participants: usize) -> Self {
        Frontiers {
            tables: [vec![None; participants], vec![None; participants]],
        }
    }

    fn publish(&mut self, round: u64, participant: usize, peek: Option<Time>) {
        self.tables[(round & 1) as usize][participant] = peek;
    }

    /// The earliest frontier published for `round`, or `None` when
    /// every participant reported idle.
    fn minimum(&self, round: u64) -> Option<Time> {
        self.tables[(round & 1) as usize]
            .iter()
            .copied()
            .flatten()
            .min()
    }
}

/// What the barrier's mutex guards.
#[derive(Debug)]
struct Rendezvous {
    arrived: usize,
    /// Completed waits; its parity selects the frontier table.
    round: u64,
    frontiers: Frontiers,
}

/// The window barrier: one wait per round.
///
/// [`publish_and_sync`](WindowBarrier::publish_and_sync) publishes the
/// caller's frontier, waits for every participant, and returns the
/// global minimum. Every participant reads the *same* minimum from the
/// same published snapshot.
#[derive(Debug)]
pub struct WindowBarrier {
    participants: usize,
    state: Mutex<Rendezvous>,
    released: Condvar,
}

impl WindowBarrier {
    /// Creates a barrier synchronising `participants` threads.
    #[must_use]
    pub fn new(participants: usize) -> Self {
        WindowBarrier {
            participants,
            state: Mutex::new(Rendezvous {
                arrived: 0,
                round: 0,
                frontiers: Frontiers::new(participants),
            }),
            released: Condvar::new(),
        }
    }

    /// Every update under the lock is a complete step (a counter, one
    /// table slot), so the state a panicking holder leaves behind is valid.
    fn lock(&self) -> MutexGuard<'_, Rendezvous> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arrives at the current round and waits until every participant
    /// has. Hands the lock back, so the caller reads the round's table
    /// under the acquisition the wake-up already paid for.
    fn arrive<'a>(&'a self, mut state: MutexGuard<'a, Rendezvous>) -> MutexGuard<'a, Rendezvous> {
        let round = state.round;
        state.arrived += 1;
        if state.arrived == self.participants {
            state.arrived = 0;
            state.round += 1;
            self.released.notify_all();
        }
        while state.round == round {
            state = self
                .released
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state
    }

    /// A plain wait: returns once every participant has called it. The
    /// benchmark's round-trip adapter times it together with
    /// [`publish_and_sync`](WindowBarrier::publish_and_sync).
    pub fn flush_done(&self) {
        drop(self.arrive(self.lock()));
    }

    /// Publishes this participant's frontier and waits for all of them;
    /// returns the global minimum, or `None` when every one is idle.
    pub fn publish_and_sync(&self, participant: usize, peek: Option<Time>) -> Option<Time> {
        let mut state = self.lock();
        let round = state.round;
        state.frontiers.publish(round, participant, peek);
        let state = self.arrive(state);
        // This round's table is not written again until every
        // participant, this one included, has arrived at the next round.
        state.frontiers.minimum(round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `body(i)` on `n` threads sharing `barrier`; results in order.
    fn on_threads<T: Send>(
        barrier: &WindowBarrier,
        n: usize,
        body: impl Fn(&WindowBarrier, usize) -> T + Sync,
    ) -> Vec<T> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let body = &body;
                    scope.spawn(move || body(barrier, i))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        })
    }

    #[test]
    fn window_barrier_agrees_on_the_global_minimum() {
        let minima = on_threads(&WindowBarrier::new(4), 4, |barrier, i| {
            barrier.flush_done();
            // Participant 2 is idle.
            let peek = (i != 2).then(|| Time::from_ps(100 + i as u64 * 10));
            barrier.publish_and_sync(i, peek)
        });
        assert!(minima.iter().all(|m| *m == Some(Time::from_ps(100))));
        let idle = on_threads(&WindowBarrier::new(2), 2, |barrier, i| {
            barrier.publish_and_sync(i, None)
        });
        assert_eq!(idle, [None, None]);
    }

    /// A participant one round ahead writes the other parity's table, so
    /// what a slower one reads for its own round does not move.
    #[test]
    fn a_participant_one_round_ahead_never_changes_what_a_slower_one_reads() {
        let mut frontiers = Frontiers::new(2);
        for round in 0..6u64 {
            let at = |ps| Some(Time::from_ps(1_000 * round + ps));
            frontiers.publish(round, 0, at(300));
            frontiers.publish(round, 1, at(200));
            assert_eq!(frontiers.minimum(round), at(200));
            frontiers.publish(round + 1, 0, Some(Time::from_ps(1)));
            assert_eq!(frontiers.minimum(round), at(200));
            frontiers.publish(round + 1, 0, None);
            assert_eq!(frontiers.minimum(round), at(200));
        }
        // The same through the barrier itself: whichever participant the
        // host lets run ahead, both read each round's own minimum.
        let rounds = on_threads(&WindowBarrier::new(2), 2, |barrier, i| {
            let peeks = [[50, 7], [40, 90]][i];
            peeks.map(|ps| barrier.publish_and_sync(i, Some(Time::from_ps(ps))))
        });
        let expected = [Some(Time::from_ps(40)), Some(Time::from_ps(7))];
        assert_eq!(rounds, [expected, expected]);
    }
}
