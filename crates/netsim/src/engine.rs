//! The discrete-event engine.
//!
//! [`Sim`] owns a simulated clock, a priority queue of scheduled events,
//! and arbitrary user state `S`. Events are closures invoked with mutable
//! access to the whole simulation, so handlers can inspect state and
//! schedule further events. Ties in event time are broken by insertion
//! order, which keeps runs fully deterministic.

use crate::calendar::CalendarQueue;
use crate::time::{SimDuration, SimTime};

type EventFn<S> = Box<dyn FnOnce(&mut Sim<S>)>;

/// A discrete-event simulation over user state `S`.
///
/// ```
/// use hpop_netsim::engine::Sim;
/// use hpop_netsim::time::SimDuration;
///
/// let mut sim = Sim::new(0u32);
/// sim.schedule_in(SimDuration::from_secs(1), |sim| sim.state += 1);
/// sim.schedule_in(SimDuration::from_secs(2), |sim| sim.state += 10);
/// sim.run();
/// assert_eq!(sim.state, 11);
/// assert_eq!(sim.now().as_secs_f64(), 2.0);
/// ```
pub struct Sim<S> {
    now: SimTime,
    queue: CalendarQueue<EventFn<S>>,
    next_seq: u64,
    events_run: u64,
    /// User-owned simulation state, freely accessible from event handlers.
    pub state: S,
}

impl<S> Sim<S> {
    /// Creates a simulation at t = 0 wrapping the given state.
    pub fn new(state: S) -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: CalendarQueue::new(),
            next_seq: 0,
            events_run: 0,
            state,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events executed so far.
    pub fn events_run(&self) -> u64 {
        self.events_run
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn schedule_at(&mut self, at: SimTime, event: impl FnOnce(&mut Sim<S>) + 'static) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(at.as_nanos(), seq, Box::new(event));
    }

    /// Schedules `event` to run `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: SimDuration, event: impl FnOnce(&mut Sim<S>) + 'static) {
        self.schedule_at(self.now + delay, event);
    }

    /// Runs events until the queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs events until the queue is empty or the clock would pass
    /// `deadline`; events scheduled exactly at `deadline` do run. The clock
    /// is left at the later of its current value and `deadline` (so metrics
    /// sampled afterwards see the full window).
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            match self.queue.peek_key() {
                Some((at, _)) if at <= deadline.as_nanos() => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Executes the next event, if any. Returns whether one ran.
    pub fn step(&mut self) -> bool {
        match self.queue.pop_min() {
            Some((at, _seq, run)) => {
                let at = SimTime::from_nanos(at);
                debug_assert!(at >= self.now);
                self.now = at;
                self.events_run += 1;
                run(self);
                true
            }
            None => false,
        }
    }
}

impl<S: std::fmt::Debug> std::fmt::Debug for Sim<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("events_run", &self.events_run)
            .field("state", &self.state)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new(Vec::new());
        sim.schedule_in(SimDuration::from_secs(3), |s| s.state.push(3));
        sim.schedule_in(SimDuration::from_secs(1), |s| s.state.push(1));
        sim.schedule_in(SimDuration::from_secs(2), |s| s.state.push(2));
        sim.run();
        assert_eq!(sim.state, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim = Sim::new(Vec::new());
        for i in 0..10 {
            sim.schedule_at(SimTime::from_secs(1), move |s| s.state.push(i));
        }
        sim.run();
        assert_eq!(sim.state, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut sim = Sim::new(0u64);
        fn tick(sim: &mut Sim<u64>) {
            sim.state += 1;
            if sim.state < 5 {
                sim.schedule_in(SimDuration::from_millis(10), tick);
            }
        }
        sim.schedule_in(SimDuration::ZERO, tick);
        sim.run();
        assert_eq!(sim.state, 5);
        assert_eq!(sim.now(), SimTime::from_nanos(40_000_000));
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Sim::new(0u32);
        sim.schedule_in(SimDuration::from_secs(1), |s| s.state += 1);
        sim.schedule_in(SimDuration::from_secs(10), |s| s.state += 100);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.state, 1);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        // The far event is still pending and runs on the next full run.
        sim.run();
        assert_eq!(sim.state, 101);
    }

    #[test]
    fn deadline_events_inclusive() {
        let mut sim = Sim::new(false);
        sim.schedule_at(SimTime::from_secs(5), |s| s.state = true);
        sim.run_until(SimTime::from_secs(5));
        assert!(sim.state);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Sim::new(());
        sim.schedule_in(SimDuration::from_secs(1), |s| {
            s.schedule_at(SimTime::ZERO, |_| {});
        });
        sim.run();
    }

    #[test]
    fn event_count_tracks() {
        let mut sim = Sim::new(());
        for _ in 0..7 {
            sim.schedule_in(SimDuration::from_millis(1), |_| {});
        }
        sim.run();
        assert_eq!(sim.events_run(), 7);
        assert_eq!(sim.pending(), 0);
    }
}
