//! Transports: newline-delimited JSON over stdio or TCP.
//!
//! One connection = one request stream = one response stream, **in
//! request order**. Pipelining works because the reader thread parses and
//! dispatches ahead (cache hits and admin requests resolve instantly,
//! misses go to the pool) while a writer thread resolves the per-request
//! [`Outcome`]s in submission order — so responses never interleave or
//! reorder, keeping the stream deterministic even at high `--jobs`.
//!
//! A `shutdown` request stops the whole service: the connection answers
//! it, stops reading, and the accept loop (TCP mode) is woken by a
//! self-connect so it can exit and join the remaining connections.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

use crate::service::{Outcome, ServeCore};

/// Outcomes a connection may buffer ahead of the writer before the
/// reader blocks — bounds per-connection memory under pipelining.
const PIPELINE_DEPTH: usize = 64;

/// Serves one connection: reads request lines from `reader`, writes one
/// response line per request to `writer`, in order. Returns `true` if a
/// `shutdown` request asked the whole service to stop.
pub fn serve_connection<R, W>(core: &Arc<ServeCore>, reader: R, writer: W) -> io::Result<bool>
where
    R: BufRead,
    W: Write + Send,
{
    let (tx, rx) = mpsc::sync_channel::<Outcome>(PIPELINE_DEPTH);
    std::thread::scope(|s| {
        let drain = s.spawn(move || drain_outcomes(rx, writer));
        // A panicking writer must not take the connection loop down with
        // it: map the dead thread to a structured error and count it, so
        // the accept loop logs and moves on.
        let join_drain = |drain: std::thread::ScopedJoinHandle<'_, io::Result<bool>>| {
            drain.join().unwrap_or_else(|_| {
                core.count_writer_panic();
                Err(io::Error::other("writer thread panicked"))
            })
        };
        for line in reader.lines() {
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    drop(tx);
                    // Keep whatever responses were already queued flowing.
                    let _ = join_drain(drain);
                    return Err(e);
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let outcome = core.handle_line(&line);
            let stop = matches!(outcome, Outcome::Shutdown(_));
            if tx.send(outcome).is_err() || stop {
                break;
            }
        }
        drop(tx);
        join_drain(drain)
    })
}

fn drain_outcomes<W: Write>(rx: mpsc::Receiver<Outcome>, mut writer: W) -> io::Result<bool> {
    let mut shutdown = false;
    for outcome in rx {
        let line = match outcome {
            Outcome::Ready(p) => p,
            Outcome::Pending { id, rx } => rx.recv().unwrap_or_else(|_| {
                // The job's sender dropped without answering: it panicked
                // (the pool caught it and survived).
                crate::service::error_payload(&id, "internal: simulation job died", false)
            }),
            Outcome::Shutdown(p) => {
                shutdown = true;
                p
            }
        };
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if shutdown {
            break;
        }
    }
    Ok(shutdown)
}

/// Serves stdin/stdout until EOF or a `shutdown` request.
pub fn run_stdio(core: &Arc<ServeCore>) -> io::Result<()> {
    let stdin = io::stdin();
    serve_connection(core, stdin.lock(), io::stdout()).map(|_| ())
}

/// A bound TCP service.
pub struct Server {
    core: Arc<ServeCore>,
    listener: TcpListener,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7487`, or port `0` for an ephemeral
    /// port).
    pub fn bind(core: Arc<ServeCore>, addr: &str) -> io::Result<Server> {
        Ok(Server {
            core,
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections (one thread each) until a `shutdown` request
    /// arrives on any of them; then stops accepting and joins every
    /// connection.
    pub fn run(self) -> io::Result<()> {
        let stop = Arc::new(AtomicBool::new(false));
        let addr = self.listener.local_addr()?;
        let mut conns = Vec::new();
        for stream in self.listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            let core = Arc::clone(&self.core);
            let stop = Arc::clone(&stop);
            conns.push(std::thread::spawn(move || {
                let _ = stream.set_nodelay(true);
                let reader = match stream.try_clone() {
                    Ok(s) => BufReader::new(s),
                    Err(_) => return,
                };
                match serve_connection(&core, reader, &stream) {
                    Ok(true) => {
                        stop.store(true, Ordering::SeqCst);
                        // Wake the accept loop so it observes the flag.
                        let _ = TcpStream::connect(addr);
                    }
                    Ok(false) => {}
                    Err(e) => eprintln!("specrt-serve: connection error: {e}"),
                }
            }));
        }
        for c in conns {
            let _ = c.join();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrt_check::Json;

    #[test]
    fn a_dead_job_is_answered_under_its_request_id() {
        let (tx, rx) = mpsc::sync_channel(4);
        let (job_tx, job_rx) = mpsc::channel::<String>();
        drop(job_tx);
        tx.send(Outcome::Pending {
            id: Some("\"req-9\"".to_string()),
            rx: job_rx,
        })
        .unwrap();
        drop(tx);
        let mut out: Vec<u8> = Vec::new();
        assert!(!drain_outcomes(rx, &mut out).unwrap());
        let line = String::from_utf8(out).unwrap();
        let v = Json::parse(line.trim_end()).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("req-9"));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("retryable").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("error").and_then(Json::as_str),
            Some("internal: simulation job died")
        );
    }
}
