//! Structured event log for simulation runs.
//!
//! Production power-management stacks keep an audit trail of every
//! actuation (who throttled what, when, and why); this module provides
//! the simulator's equivalent. The log is bounded (a ring of the most
//! recent events) so long runs stay memory-safe, with total counters that
//! never drop.

use serde::{Deserialize, Serialize};

use crate::ids::{ServerId, VmId};

/// One logged simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Event {
    /// A VM migration started.
    MigrationStarted {
        /// The moved VM.
        vm: VmId,
        /// Source server.
        from: ServerId,
        /// Destination server.
        to: ServerId,
    },
    /// A server was powered on.
    PoweredOn {
        /// The server.
        server: ServerId,
    },
    /// A server was powered off.
    PoweredOff {
        /// The server.
        server: ServerId,
    },
    /// Two controllers wrote different P-states to one server within the
    /// same tick (the "power struggle").
    PStateConflict {
        /// The contended server.
        server: ServerId,
    },
    /// A server tripped thermal failover.
    ThermalFailover {
        /// The failed server.
        server: ServerId,
    },
}

impl Event {
    const MIGRATION_STARTED: u64 = 0;
    const POWERED_ON: u64 = 1;
    const POWERED_OFF: u64 = 2;
    const PSTATE_CONFLICT: u64 = 3;
    const THERMAL_FAILOVER: u64 = 4;

    /// Appends `[tag, args…]` (at most four words) to `out`.
    fn encode(self, out: &mut Vec<u64>) {
        let id = |i: usize| i as u64;
        match self {
            Event::MigrationStarted { vm, from, to } => {
                out.extend([Self::MIGRATION_STARTED, id(vm.0), id(from.0), id(to.0)])
            }
            Event::PoweredOn { server } => out.extend([Self::POWERED_ON, id(server.0)]),
            Event::PoweredOff { server } => out.extend([Self::POWERED_OFF, id(server.0)]),
            Event::PStateConflict { server } => out.extend([Self::PSTATE_CONFLICT, id(server.0)]),
            Event::ThermalFailover { server } => out.extend([Self::THERMAL_FAILOVER, id(server.0)]),
        }
    }

    /// Decodes the event tagged `tag` from the front of `args`; returns it
    /// with the number of argument words it used. `word` is the offset of
    /// the event's first word, for error reports.
    fn decode(tag: u64, args: &[u64], word: usize) -> Result<(Self, usize), EventLogError> {
        let id = |k: usize| -> Result<usize, EventLogError> {
            let arg = args.get(k).ok_or(EventLogError::Truncated { word })?;
            usize::try_from(*arg).map_err(|_| EventLogError::IdOutOfRange { word })
        };
        let server = || id(0).map(ServerId);
        Ok(match tag {
            Self::MIGRATION_STARTED => (
                Event::MigrationStarted {
                    vm: VmId(id(0)?),
                    from: ServerId(id(1)?),
                    to: ServerId(id(2)?),
                },
                3,
            ),
            Self::POWERED_ON => (Event::PoweredOn { server: server()? }, 1),
            Self::POWERED_OFF => (Event::PoweredOff { server: server()? }, 1),
            Self::PSTATE_CONFLICT => (Event::PStateConflict { server: server()? }, 1),
            Self::THERMAL_FAILOVER => (Event::ThermalFailover { server: server()? }, 1),
            _ => return Err(EventLogError::UnknownTag { word, tag }),
        })
    }
}

/// Why a checkpointed event log ([`EventLogSnapshot`]) cannot be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventLogError {
    /// The words end inside the event starting at word `word`.
    Truncated {
        /// Offset of the event's first word.
        word: usize,
    },
    /// The event starting at word `word` has an unknown tag.
    UnknownTag {
        /// Offset of the event's first word.
        word: usize,
        /// The unknown tag.
        tag: u64,
    },
    /// An id of the event starting at word `word` does not fit a `usize`.
    IdOutOfRange {
        /// Offset of the event's first word.
        word: usize,
    },
    /// The decoded events disagree with the ring's counters.
    Inconsistent {
        /// Events decoded from the words.
        events: usize,
        /// Ring capacity.
        capacity: usize,
        /// Ring cursor.
        next: usize,
        /// Events ever recorded.
        total: u64,
    },
    /// The ring capacity differs from the restoring log's own.
    CapacityMismatch {
        /// Capacity recorded in the checkpoint.
        checkpoint: usize,
        /// Capacity of the log being restored.
        expected: usize,
    },
}

impl std::fmt::Display for EventLogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventLogError::Truncated { word } => write!(f, "event at word {word} is truncated"),
            EventLogError::UnknownTag { word, tag } => {
                write!(f, "event at word {word} has unknown tag {tag}")
            }
            EventLogError::IdOutOfRange { word } => {
                write!(f, "event at word {word} has an id out of range")
            }
            EventLogError::Inconsistent {
                events,
                capacity,
                next,
                total,
            } => write!(
                f,
                "{events} events, capacity {capacity}, cursor {next}, total {total} are inconsistent"
            ),
            EventLogError::CapacityMismatch {
                checkpoint,
                expected,
            } => write!(f, "ring capacity {checkpoint} (expected {expected})"),
        }
    }
}

impl std::error::Error for EventLogError {}

/// A timestamped event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoggedEvent {
    /// Tick at which the event occurred.
    pub tick: u64,
    /// The event.
    pub event: Event,
}

/// Bounded ring log of recent events plus lifetime counters.
///
/// Checkpoints carry it as an [`EventLogSnapshot`]; the log itself is not
/// deserializable, so every log in memory satisfies the ring invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLog {
    capacity: usize,
    ring: Vec<LoggedEvent>,
    next: usize,
    total: u64,
}

impl EventLog {
    /// Creates a log retaining up to `capacity` recent events
    /// (capacity 0 disables retention but keeps counting).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            ring: Vec::with_capacity(capacity.min(1_024)),
            next: 0,
            total: 0,
        }
    }

    /// Records an event at `tick`.
    pub fn record(&mut self, tick: u64, event: Event) {
        self.total += 1;
        if self.capacity == 0 {
            return;
        }
        let entry = LoggedEvent { tick, event };
        if self.ring.len() < self.capacity {
            self.ring.push(entry);
        } else {
            self.ring[self.next] = entry;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// How many recent events the log retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (including evicted ones).
    pub fn total_events(&self) -> u64 {
        self.total
    }

    /// The retained events, oldest first.
    pub fn recent(&self) -> Vec<LoggedEvent> {
        let mut out = Vec::with_capacity(self.ring.len());
        if self.ring.len() < self.capacity {
            out.extend_from_slice(&self.ring);
        } else {
            out.extend_from_slice(&self.ring[self.next..]);
            out.extend_from_slice(&self.ring[..self.next]);
        }
        out
    }

    /// The retained events matching a predicate, oldest first.
    pub fn filter(&self, mut pred: impl FnMut(&LoggedEvent) -> bool) -> Vec<LoggedEvent> {
        self.recent().into_iter().filter(|e| pred(e)).collect()
    }

    /// The log's checkpoint form: the ring in storage order as flat
    /// `[tick, tag, args…]` words.
    pub fn snapshot(&self) -> EventLogSnapshot {
        let mut words = Vec::with_capacity(self.ring.len() * EventLogSnapshot::MAX_WORDS_PER_EVENT);
        for e in &self.ring {
            words.push(e.tick);
            e.event.encode(&mut words);
        }
        EventLogSnapshot {
            capacity: self.capacity,
            next: self.next,
            total: self.total,
            words,
        }
    }

    /// Rebuilds a log from [`EventLog::snapshot`] output. Truncated words,
    /// unknown tags and ring cursors that break the ring invariants are
    /// errors, never panics.
    pub fn from_snapshot(snap: &EventLogSnapshot) -> Result<Self, EventLogError> {
        let mut ring = Vec::with_capacity(snap.words.len() / 3);
        let mut rest = snap.words.as_slice();
        while let [tick, tag, args @ ..] = rest {
            let word = snap.words.len() - rest.len();
            let (event, used) = Event::decode(*tag, args, word)?;
            ring.push(LoggedEvent { tick: *tick, event });
            rest = &args[used..];
        }
        if !rest.is_empty() {
            return Err(EventLogError::Truncated {
                word: snap.words.len() - rest.len(),
            });
        }
        // `record` keeps `min(total, capacity)` events and moves the cursor
        // only once the ring is full, so a cut at an event boundary or an
        // edited counter shows up here.
        let retained = snap.total.min(snap.capacity as u64);
        let full = ring.len() == snap.capacity;
        let cursor_ok = snap.next == 0 || (full && snap.next < snap.capacity);
        if ring.len() as u64 != retained || !cursor_ok {
            return Err(EventLogError::Inconsistent {
                events: ring.len(),
                capacity: snap.capacity,
                next: snap.next,
                total: snap.total,
            });
        }
        Ok(Self {
            capacity: snap.capacity,
            ring,
            next: snap.next,
            total: snap.total,
        })
    }
}

/// Checkpoint form of an [`EventLog`]. Each retained event is flattened
/// to `[tick, tag, args…]` — a migration takes five words, every other
/// event three — instead of a nested JSON object per event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventLogSnapshot {
    /// Ring capacity of the log.
    pub capacity: usize,
    /// Ring slot the next event overwrites once the ring is full.
    pub next: usize,
    /// Events ever recorded, evicted ones included.
    pub total: u64,
    /// The ring in storage order, one `[tick, tag, args…]` run per event.
    pub words: Vec<u64>,
}

impl EventLogSnapshot {
    /// Upper bound on the words one event occupies.
    pub const MAX_WORDS_PER_EVENT: usize = 5;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(server: usize) -> Event {
        Event::PoweredOn {
            server: ServerId(server),
        }
    }

    #[test]
    fn records_in_order_until_capacity() {
        let mut log = EventLog::new(3);
        log.record(1, ev(0));
        log.record(2, ev(1));
        let r = log.recent();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].tick, 1);
        assert_eq!(r[1].tick, 2);
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_counting() {
        let mut log = EventLog::new(2);
        for t in 0..5 {
            log.record(t, ev(t as usize));
        }
        assert_eq!(log.total_events(), 5);
        let r = log.recent();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].tick, 3);
        assert_eq!(r[1].tick, 4);
    }

    #[test]
    fn zero_capacity_counts_without_retaining() {
        let mut log = EventLog::new(0);
        log.record(1, ev(0));
        assert_eq!(log.total_events(), 1);
        assert!(log.recent().is_empty());
    }

    #[test]
    fn filter_selects_event_kinds() {
        let mut log = EventLog::new(10);
        log.record(
            1,
            Event::PoweredOff {
                server: ServerId(0),
            },
        );
        log.record(
            2,
            Event::MigrationStarted {
                vm: VmId(3),
                from: ServerId(0),
                to: ServerId(1),
            },
        );
        log.record(
            3,
            Event::ThermalFailover {
                server: ServerId(2),
            },
        );
        let migrations = log.filter(|e| matches!(e.event, Event::MigrationStarted { .. }));
        assert_eq!(migrations.len(), 1);
        assert_eq!(migrations[0].tick, 2);
    }

    fn every_variant() -> [Event; 5] {
        [
            Event::MigrationStarted {
                vm: VmId(3),
                from: ServerId(0),
                to: ServerId(usize::MAX),
            },
            Event::PoweredOn {
                server: ServerId(1),
            },
            Event::PoweredOff {
                server: ServerId(2),
            },
            Event::PStateConflict {
                server: ServerId(4),
            },
            Event::ThermalFailover {
                server: ServerId(5),
            },
        ]
    }

    fn roundtrip(log: &EventLog) -> EventLog {
        let json = serde_json::to_string(&log.snapshot()).unwrap();
        let snap: EventLogSnapshot = serde_json::from_str(&json).unwrap();
        EventLog::from_snapshot(&snap).unwrap()
    }

    #[test]
    fn serde_roundtrip() {
        let mut log = EventLog::new(8);
        for (t, e) in every_variant().into_iter().enumerate() {
            log.record(t as u64, e);
        }
        assert_eq!(roundtrip(&log), log);
    }

    #[test]
    fn wrapped_ring_roundtrips() {
        let mut log = EventLog::new(3);
        for (t, e) in every_variant().into_iter().cycle().take(11).enumerate() {
            log.record(t as u64, e);
        }
        assert!(log.next > 0);
        let back = roundtrip(&log);
        assert_eq!(back, log);
        assert_eq!(back.recent(), log.recent());
        // The restored ring keeps evicting in the same order.
        let (mut a, mut b) = (log, back);
        a.record(99, every_variant()[0]);
        b.record(99, every_variant()[0]);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_capacity_roundtrips() {
        let mut log = EventLog::new(0);
        log.record(1, ev(0));
        let snap = log.snapshot();
        assert!(snap.words.is_empty());
        assert_eq!(roundtrip(&log), log);
    }

    #[test]
    fn malformed_words_are_errors() {
        let mut log = EventLog::new(4);
        log.record(1, every_variant()[0]);
        log.record(2, ev(7));
        let good = log.snapshot();
        let with = |f: &dyn Fn(&mut EventLogSnapshot)| {
            let mut s = good.clone();
            f(&mut s);
            EventLog::from_snapshot(&s)
        };
        for cut in 1..good.words.len() {
            assert!(
                with(&|s| s.words.truncate(cut)).is_err(),
                "truncated to {cut}"
            );
        }
        assert_eq!(
            with(&|s| s.words.truncate(7)),
            Err(EventLogError::Truncated { word: 5 })
        );
        assert_eq!(
            with(&|s| s.words[1] = 5),
            Err(EventLogError::UnknownTag { word: 0, tag: 5 })
        );
        assert_eq!(
            with(&|s| s.words[6] = u64::MAX),
            Err(EventLogError::UnknownTag {
                word: 5,
                tag: u64::MAX
            })
        );
        let inconsistent = |r: Result<EventLog, EventLogError>| {
            matches!(r, Err(EventLogError::Inconsistent { .. }))
        };
        assert!(
            inconsistent(with(&|s| s.words.truncate(5))),
            "cut at a boundary"
        );
        assert!(inconsistent(with(&|s| s.capacity = 1)), "overfull ring");
        assert!(
            inconsistent(with(&|s| s.next = 1)),
            "cursor in a partial ring"
        );
        assert!(inconsistent(with(&|s| s.total = 1)), "total below retained");
        assert_eq!(with(&|_| ()).unwrap(), log);
    }

    #[test]
    fn full_ring_stays_within_five_words_per_event() {
        let mut log = EventLog::new(4_096);
        for t in 0..10_000u64 {
            let e = every_variant()[(t % 5) as usize];
            log.record(t, e);
        }
        let snap = log.snapshot();
        assert!(snap.words.len() <= 4_096 * EventLogSnapshot::MAX_WORDS_PER_EVENT);
        let migrations = log
            .filter(|e| matches!(e.event, Event::MigrationStarted { .. }))
            .len();
        assert_eq!(snap.words.len(), 5 * migrations + 3 * (4_096 - migrations));
        assert_eq!(EventLog::from_snapshot(&snap).unwrap(), log);
    }
}
