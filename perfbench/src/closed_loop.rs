//! The closed-loop client: one thread submits, and a request's slot is
//! refilled only once that request resolves, so at most `depth` requests
//! are ever outstanding.

use crate::inputs::Request;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Requests the client keeps outstanding. The reference host has 2
/// CPUs; with one request in flight the client, its waiter and the busy
/// shard worker never contend for them, so latency measures the program
/// rather than the guest's scheduler.
pub const DEPTH: usize = 1;

/// One resolved request.
#[derive(Debug)]
pub struct Done<R> {
    /// The request.
    pub request: Request,
    /// From just before `submit` to the moment `wait` returned.
    pub latency: Duration,
    /// What `wait` returned.
    pub result: R,
}

/// Runs a closed loop of `depth` slots until `next` returns `None` and
/// every outstanding request has resolved.
///
/// `next` yields a request and its payload, built before the latency
/// clock starts. `submit` runs on the calling thread and returns a
/// ticket; `wait` blocks on one ticket and runs on the slot's waiter
/// thread, so a request that resolves first is seen first and its
/// latency is not inflated by an older request still running. `done`
/// runs on the calling thread, in resolution order, before that slot's
/// next submit.
pub fn closed_loop<P, T: Send, R: Send>(
    depth: usize,
    mut next: impl FnMut() -> Option<(Request, P)>,
    mut submit: impl FnMut(Request, P) -> T,
    wait: impl Fn(T) -> R + Sync,
    mut done: impl FnMut(Done<R>),
) {
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<(usize, Done<R>)>();
        let mut slots = Vec::with_capacity(depth);
        for slot in 0..depth {
            let (tx, rx) = mpsc::channel::<(Request, Instant, T)>();
            let done_tx = done_tx.clone();
            let wait = &wait;
            scope.spawn(move || {
                for (request, start, ticket) in rx {
                    let result = wait(ticket);
                    let latency = start.elapsed();
                    let msg = Done {
                        request,
                        latency,
                        result,
                    };
                    if done_tx.send((slot, msg)).is_err() {
                        break;
                    }
                }
            });
            slots.push(tx);
        }
        drop(done_tx);

        let mut send = |slot: usize, (request, payload): (Request, P)| {
            let start = Instant::now();
            let ticket = submit(request, payload);
            slots[slot]
                .send((request, start, ticket))
                .expect("waiter threads outlive the loop");
        };
        let mut outstanding = 0;
        for slot in 0..depth {
            let Some(item) = next() else { break };
            send(slot, item);
            outstanding += 1;
        }
        while outstanding > 0 {
            let (slot, msg) = done_rx
                .recv()
                .expect("a waiter is alive while requests are outstanding");
            outstanding -= 1;
            done(msg);
            if let Some(item) = next() {
                send(slot, item);
                outstanding += 1;
            }
        }
        // Dropping the slot senders ends the waiter threads; the scope
        // joins them.
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn req(index: u64) -> Request {
        Request {
            index,
            matrix: 0,
            rhs: 0,
        }
    }

    #[test]
    fn never_more_than_depth_outstanding() {
        for depth in [DEPTH, 2] {
            fills_exactly(depth);
        }
    }

    fn fills_exactly(depth: usize) {
        let live = Cell::new(0usize);
        let peak = Cell::new(0usize);
        let mut issued = 0u64;
        let mut seen = Vec::new();
        closed_loop(
            depth,
            || {
                issued += 1;
                (issued <= 50).then(|| (req(issued - 1), ()))
            },
            |r, ()| {
                live.set(live.get() + 1);
                peak.set(peak.get().max(live.get()));
                r.index
            },
            |index| index,
            |d| {
                live.set(live.get() - 1);
                assert_eq!(d.request.index, d.result);
                seen.push(d.result);
            },
        );
        assert_eq!(peak.get(), depth);
        assert_eq!(live.get(), 0);
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_stream_submits_nothing() {
        let mut submitted = 0;
        closed_loop(
            DEPTH,
            || None::<(Request, ())>,
            |_, ()| submitted += 1,
            |()| (),
            |_| {},
        );
        assert_eq!(submitted, 0);
    }
}
