//! The threaded message-passing runtime: one OS thread per PE, `std::sync::mpsc`
//! channels as the wire.
//!
//! This is the "real" backend — every PE executes concurrently, every
//! collective really exchanges messages, and wall-clock measurements of PE
//! programs reflect true parallel behaviour (used by the real-speedup
//! benchmarks and all correctness tests of the distributed samplers).
//!
//! **Waiting.** A collective hop is a short message that usually arrives
//! within a microsecond or two of the receiver asking for it. A blocking
//! `recv()` parks the receiver on a futex, and the wake-up costs several
//! microseconds — more than the α the cost model charges for the whole
//! hop. So a receive first *spins*: it polls `try_recv` up to
//! [`SPIN_POLLS`] times with a CPU spin hint, handing the core over with
//! `yield_now` every [`YIELD_EVERY`] polls so oversubscribed runs (more
//! PEs than cores) still make progress. Only when the budget is spent
//! does it block. The budget is a constant, not a knob: it only decides
//! *when* a PE notices a message that has already arrived, never what it
//! receives, so there is nothing for a caller to tune.
//!
//! **Fail-stop.** When a PE's thread panics, dropping its endpoint during
//! the unwind sends a poison packet to every peer, carrying the failed
//! rank and its collective sequence number. A peer that meets the packet
//! in a receive panics with "peer PE k failed at collective #n" instead of
//! waiting forever, and [`run_threads`] re-raises the originating PE's
//! panic rather than one of the cascaded ones.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;

use crate::stats::StatsCell;
use crate::{CommStats, Communicator};

/// Polls of the mailbox before a receive falls back to blocking. Measured
/// on a 2-core host over 20 000 back-to-back `sum_u64` all-reduces: a
/// hop landed after 10 polls at the median and 65 at the 99.9th
/// percentile at p = 2, and after at most ~200 at p = 4 (oversubscribed);
/// none exhausted the budget. The whole budget spins for ~0.35–0.4 ms,
/// so a PE that waits on a long computation still parks soon.
const SPIN_POLLS: u32 = 1 << 14;
/// Polls between `yield_now` calls during the spin.
const YIELD_EVERY: u32 = 64;
/// `failed` value while no PE of the communicator has panicked.
const NO_FAILURE: usize = usize::MAX;

struct Packet {
    src: usize,
    tag: u64,
    payload: Box<dyn Any + Send>,
}

/// What travels on the channels: a message, or a failed PE's poison.
enum Mail {
    Packet(Packet),
    /// PE `src` panicked after launching `seq` collectives.
    Poison {
        src: usize,
        seq: u64,
    },
}

impl Mail {
    /// The message, or the fail-stop panic naming the failed peer.
    fn packet(self) -> Packet {
        match self {
            Mail::Packet(packet) => packet,
            Mail::Poison { src, seq } => panic!("peer PE {src} failed at collective #{seq}"),
        }
    }
}

/// One PE's endpoint of a threaded communicator.
///
/// Created in bulk with [`ThreadComm::create`] (one endpoint per PE) and
/// moved into per-PE threads, typically via [`run_threads`].
pub struct ThreadComm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Mail>>,
    receiver: Receiver<Mail>,
    /// Messages that arrived before the PE asked for them (tag mismatch).
    pending: RefCell<Vec<Packet>>,
    seq: Cell<u64>,
    stats: StatsCell,
    /// Rank of the first PE whose endpoint was dropped by a panic, shared
    /// by all endpoints of the communicator. Set once, by compare-exchange;
    /// `run_threads` reads it after joining every PE thread.
    failed: Arc<AtomicUsize>,
}

impl ThreadComm {
    /// Build the `p` endpoints of a fully connected communicator.
    pub fn create(p: usize) -> Vec<ThreadComm> {
        assert!(p > 0, "communicator needs at least one PE");
        let mut senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let failed = Arc::new(AtomicUsize::new(NO_FAILURE));
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| ThreadComm {
                rank,
                size: p,
                senders: senders.clone(),
                receiver,
                pending: RefCell::new(Vec::new()),
                seq: Cell::new(0),
                stats: StatsCell::default(),
                failed: Arc::clone(&failed),
            })
            .collect()
    }

    /// The next message in the mailbox: spin on `try_recv`, then block.
    /// Panics on a failed peer's poison.
    fn next_packet(&self) -> Packet {
        for poll in 1..=SPIN_POLLS {
            match self.receiver.try_recv() {
                Ok(mail) => return mail.packet(),
                Err(TryRecvError::Empty) => {}
                // Unreachable: this endpoint holds a sender to itself.
                Err(TryRecvError::Disconnected) => break,
            }
            if poll % YIELD_EVERY == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        self.receiver
            .recv()
            .expect("all senders dropped while blocked in recv")
            .packet()
    }
}

impl Drop for ThreadComm {
    /// Fail-stop: the first endpoint dropped by a panic tells every peer.
    /// Later ones (peers panicking in turn) stay silent, so every peer
    /// names the PE that failed first.
    fn drop(&mut self) {
        if !std::thread::panicking()
            || self
                .failed
                .compare_exchange(NO_FAILURE, self.rank, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
        {
            return;
        }
        let seq = self.seq.get();
        for (to, sender) in self.senders.iter().enumerate() {
            if to != self.rank {
                // A peer that has already exited needs no warning.
                let _ = sender.send(Mail::Poison {
                    src: self.rank,
                    seq,
                });
            }
        }
    }
}

impl Communicator for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send_raw(&self, to: usize, tag: u64, msg: Box<dyn Any + Send>, _words: u64) {
        debug_assert!(to < self.size, "send to out-of-range PE {to}");
        let mail = Mail::Packet(Packet {
            src: self.rank,
            tag,
            payload: msg,
        });
        if self.senders[to].send(mail).is_err() {
            // The peer is gone. If it (or another PE) failed, the first
            // failed PE poisons every live peer, so wait for that poison
            // and report it like a receive would.
            if self.failed.load(Ordering::Acquire) != NO_FAILURE {
                loop {
                    let packet = self.next_packet();
                    self.pending.borrow_mut().push(packet);
                }
            }
            panic!("receiving endpoint dropped while communicator in use");
        }
    }

    fn recv_raw(&self, from: usize, tag: u64) -> Box<dyn Any + Send> {
        // First serve from the out-of-order buffer.
        {
            let mut pending = self.pending.borrow_mut();
            if let Some(pos) = pending.iter().position(|p| p.src == from && p.tag == tag) {
                return pending.swap_remove(pos).payload;
            }
        }
        loop {
            let packet = self.next_packet();
            if packet.src == from && packet.tag == tag {
                return packet.payload;
            }
            self.pending.borrow_mut().push(packet);
        }
    }

    fn record(&self, messages: u64, words: u64) {
        self.stats.record(messages, words);
    }

    fn next_collective_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    fn stats(&self) -> CommStats {
        self.stats.snapshot()
    }
}

/// Run one closure per PE on its own OS thread and collect the results in
/// rank order. The closure receives the PE's endpoint.
///
/// A panic in any PE stops the others (see the module docs) and is
/// re-raised once all threads have been joined: the panic of the PE that
/// failed first, not the "peer PE k failed" panics it set off.
pub fn run_threads<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(ThreadComm) -> R + Sync,
{
    let comms = ThreadComm::create(p);
    let failed = Arc::clone(&comms[0].failed);
    let mut outcomes: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for comm in comms {
            let f = &f;
            handles.push(scope.spawn(move || f(comm)));
        }
        handles.into_iter().map(|h| h.join()).collect()
    });
    // A panic with no endpoint in its unwind (the closure had already
    // dropped or leaked it) falls back to the lowest failed rank.
    let first = failed.load(Ordering::Acquire);
    let origin = (first != NO_FAILURE && outcomes[first].is_err())
        .then_some(first)
        .or_else(|| outcomes.iter().position(Result::is_err));
    if let Some(Err(payload)) = origin.map(|rank| outcomes.swap_remove(rank)) {
        std::panic::resume_unwind(payload);
    }
    outcomes
        .into_iter()
        .map(|o| o.unwrap_or_else(|_| unreachable!("every panic was re-raised")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::Collectives;

    #[test]
    fn point_to_point_roundtrip() {
        let results = run_threads(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, 42u64);
                comm.recv::<u64>(1, 8)
            } else {
                let x = comm.recv::<u64>(0, 7);
                comm.send(0, 8, x * 2);
                x
            }
        });
        assert_eq!(results, vec![84, 42]);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let results = run_threads(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 10u64);
                comm.send(1, 2, 20u64);
                0
            } else {
                // Receive in the opposite order of sending.
                let b = comm.recv::<u64>(0, 2);
                let a = comm.recv::<u64>(0, 1);
                a + b
            }
        });
        assert_eq!(results[1], 30);
    }

    #[test]
    fn broadcast_from_every_root() {
        for p in [1, 2, 3, 5, 8, 13] {
            for root in 0..p {
                let results = run_threads(p, |comm| {
                    let value = (comm.rank() == root).then_some(root as u64 * 100);
                    comm.broadcast(root, value)
                });
                assert!(
                    results.iter().all(|&v| v == root as u64 * 100),
                    "p={p} root={root}"
                );
            }
        }
    }

    #[test]
    fn reduce_sums_at_root() {
        for p in [1, 2, 4, 7, 16] {
            let results = run_threads(p, |comm| {
                comm.reduce(0, comm.rank() as u64 + 1, |a, b| a + b)
            });
            let expect = (p as u64) * (p as u64 + 1) / 2;
            assert_eq!(results[0], Some(expect), "p={p}");
            assert!(results[1..].iter().all(Option::is_none));
        }
    }

    #[test]
    fn allreduce_max_everywhere() {
        let results = run_threads(9, |comm| comm.max_f64(comm.rank() as f64));
        assert!(results.iter().all(|&v| v == 8.0));
    }

    #[test]
    fn allreduce_vector_sum() {
        let p = 6;
        let results = run_threads(p, |comm| comm.sum_u64_vec(vec![1, comm.rank() as u64, 100]));
        for r in &results {
            assert_eq!(r, &vec![p as u64, 15, 600]);
        }
    }

    #[test]
    fn gather_orders_by_rank() {
        for p in [1, 3, 8] {
            let results = run_threads(p, |comm| comm.gather(0, comm.rank() as u64 * 2));
            assert_eq!(
                results[0],
                Some((0..p as u64).map(|r| r * 2).collect::<Vec<_>>()),
                "p={p}"
            );
        }
    }

    #[test]
    fn allgather_everywhere() {
        let p = 5;
        let results = run_threads(p, |comm| comm.allgather(comm.rank() as u64));
        for r in results {
            assert_eq!(r, (0..p as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn late_sender_is_received_by_the_blocking_fallback() {
        // The sender sleeps far past the spin budget, so the receiver has
        // parked in the blocking `recv` by the time anything arrives; an
        // out-of-order tag still lands in the pending buffer.
        let results = run_threads(2, |comm| {
            if comm.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
                comm.send(1, 5, 11u64);
                comm.send(1, 4, 22u64);
                0
            } else {
                let a = comm.recv::<u64>(0, 4);
                let b = comm.recv::<u64>(0, 5);
                a * 100 + b
            }
        });
        assert_eq!(results[1], 2211);
    }

    #[test]
    fn successive_collectives_do_not_collide() {
        // Stress the tag sequencing: many collectives back to back, also
        // with far more PEs than cores (the spin must yield the core).
        for p in [4, 16] {
            let results = run_threads(p, |comm| {
                let mut acc = 0u64;
                for i in 0..50u64 {
                    acc += comm.sum_u64(i + comm.rank() as u64);
                    comm.barrier();
                    let root = (i as usize) % p;
                    let val = (comm.rank() == root).then_some(acc);
                    acc = comm.broadcast(root, val);
                }
                acc
            });
            assert!(results.windows(2).all(|w| w[0] == w[1]), "p={p}");
        }
    }

    /// Runs `f` on a helper thread, so that a fail-stop regression fails
    /// the test after 10 s instead of hanging the suite.
    fn with_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("PE threads hung (or the test body panicked)")
    }

    #[test]
    fn a_panicking_pe_stops_its_peers() {
        // Regression: PE 2 panicking before a barrier used to leave PEs 0
        // and 1 blocked in `recv` forever. The run must now end, and with
        // PE 2's own panic.
        let outcome = with_watchdog(|| {
            std::panic::catch_unwind(|| {
                run_threads(3, |comm| {
                    comm.barrier();
                    if comm.rank() == 2 {
                        panic!("PE 2 gave up");
                    }
                    comm.barrier();
                })
            })
            .map_err(|payload| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        });
        assert_eq!(outcome.unwrap_err().as_deref(), Some("PE 2 gave up"));
    }

    #[test]
    fn peers_name_the_failed_pe_and_collective() {
        // PE 0 fails after one barrier (a reduce and a broadcast:
        // collective sequence numbers 0 and 1). Only then does PE 1 start
        // its next barrier, whose first step sends to the dead PE 0: it
        // must panic with the poison's report, not blame the closed
        // channel. (Waiting on a dead peer is covered above.)
        let endpoint_dropped = std::sync::Barrier::new(2);
        let results = with_watchdog(move || {
            run_threads(2, |comm| {
                comm.barrier();
                if comm.rank() == 0 {
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                        let _endpoint_in_the_unwind = comm;
                        panic!("PE 0 failed");
                    }));
                    endpoint_dropped.wait();
                    return None;
                }
                endpoint_dropped.wait();
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    comm.barrier();
                }));
                let payload = caught.expect_err("barrier with a failed peer must panic");
                payload.downcast_ref::<String>().cloned()
            })
        });
        assert_eq!(
            results[1].as_deref(),
            Some("peer PE 0 failed at collective #2")
        );
    }

    #[test]
    fn stats_count_messages() {
        let results = run_threads(4, |comm| {
            comm.barrier();
            comm.stats()
        });
        // Every PE except the tree root sends at least one message per
        // reduce, and roots send during broadcast.
        let total: u64 = results.iter().map(|s| s.messages).sum();
        assert!(total >= 6, "barrier exchanged {total} messages");
    }
}
