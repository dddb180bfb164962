//! A fixed-capacity packet pool with pluggable QoS admission policies.
//!
//! PR 4 made the PHY frame pipeline allocation-free; this module extends
//! that budget upward into host-side TX/RX queuing. Every buffer that
//! crosses the ATT/L2CAP/link boundary in steady state is borrowed from a
//! [`PacketPool`]: at most `capacity` MTU-sized `Vec<u8>`s, each created
//! on first demand and handed out as a [`PooledBuf`] that returns itself
//! (capacity intact) on drop. An idle pool owns no buffers; once a
//! workload has created the buffers it needs, the steady-state alloc/free
//! cycle never touches the heap — pinned by `bench/tests/alloc_budget.rs`.
//!
//! Admission is governed by a [`QosPolicy`]. [`QosPolicy::Fair`] is plain
//! first-come-first-served; [`QosPolicy::ReserveN`] reserves a minimum
//! number of buffers per client (a client = one connection slot in the
//! multi-connection Central), so a chatty connection can exhaust the shared
//! portion but can never starve another client below its reserve.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Maximum distinct pool clients (connection slots) a pool arbitrates.
pub const MAX_POOL_CLIENTS: usize = 8;

/// Default buffer capacity: the largest ATT MTU the GATT server negotiates
/// (247 B) plus the 4-byte L2CAP header.
pub const DEFAULT_BUF_CAPACITY: usize = 251;

/// Admission policy applied on every [`PacketPool::alloc`].
///
/// Covered by the xtask R4 exhaustive-match rule: consumers must decide
/// explicitly how to treat every policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QosPolicy {
    /// First-come-first-served: any client may take any free buffer.
    Fair,
    /// Per-client reservations: client `c` is always admitted while it
    /// holds fewer than `reserve[c]` buffers; beyond its reserve it may
    /// only draw from buffers not needed to honour the *other* clients'
    /// outstanding reservations.
    ReserveN {
        /// Reserved buffer count per client index.
        reserve: [u16; MAX_POOL_CLIENTS],
    },
}

/// Point-in-time pool occupancy counters (see [`PacketPool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Most buffers the pool hands out at once.
    pub capacity: usize,
    /// Buffers not handed out: returned ones plus those not yet created.
    pub free: usize,
    /// Most buffers ever simultaneously in use.
    pub high_water: usize,
    /// Allocations refused (capacity or policy), per client index.
    pub denials: [u64; MAX_POOL_CLIENTS],
}

impl PoolStats {
    /// Total denials across every client.
    pub fn total_denials(&self) -> u64 {
        self.denials.iter().sum()
    }
}

#[derive(Debug)]
struct PoolInner {
    /// Returned buffers, ready for reuse.
    free: Vec<Vec<u8>>,
    /// Buffers created so far; never more than `capacity`.
    created: usize,
    capacity: usize,
    buf_capacity: usize,
    in_use: [u16; MAX_POOL_CLIENTS],
    policy: QosPolicy,
    high_water: usize,
    denials: [u64; MAX_POOL_CLIENTS],
}

impl PoolInner {
    /// Buffers not handed out: the returned ones plus those not yet created.
    fn available(&self) -> usize {
        self.free.len() + (self.capacity - self.created)
    }

    /// Whether `client` may take a buffer under the active policy. Assumes
    /// at least one buffer is free.
    fn admitted(&self, client: usize) -> bool {
        match &self.policy {
            QosPolicy::Fair => true,
            QosPolicy::ReserveN { reserve } => {
                let held = usize::from(self.in_use[client]);
                if held < usize::from(reserve[client]) {
                    return true;
                }
                // Beyond its reserve a client may only use buffers that are
                // not needed to top every *other* client up to its reserve.
                let shortfall: usize = reserve
                    .iter()
                    .zip(self.in_use.iter())
                    .enumerate()
                    .filter(|(i, _)| *i != client)
                    .map(|(_, (&r, &u))| usize::from(r).saturating_sub(usize::from(u)))
                    .sum();
                self.available() > shortfall
            }
        }
    }
}

/// A fixed-capacity pool of MTU-sized buffers shared between the host
/// stacks of one node. Cloning the handle shares the same pool.
///
/// # Example
///
/// ```
/// use ble_host::pool::{PacketPool, QosPolicy};
/// let pool = PacketPool::new(4, 64, QosPolicy::Fair);
/// let mut buf = pool.alloc(0).expect("pool has room");
/// buf.extend_from_slice(b"pdu");
/// assert_eq!(&buf[..], b"pdu");
/// drop(buf); // returns to the pool, capacity intact
/// assert_eq!(pool.stats().free, 4);
/// ```
#[derive(Debug, Clone)]
pub struct PacketPool {
    inner: Arc<Mutex<PoolInner>>,
}

impl PacketPool {
    /// Builds a pool of `capacity` buffers, each able to hold `buf_capacity`
    /// bytes without reallocating. No buffer exists yet: each is created
    /// the first time every existing one is handed out, and kept for reuse.
    pub fn new(capacity: usize, buf_capacity: usize, policy: QosPolicy) -> Self {
        PacketPool {
            inner: Arc::new(Mutex::new(PoolInner {
                free: Vec::new(),
                created: 0,
                capacity,
                buf_capacity,
                in_use: [0; MAX_POOL_CLIENTS],
                policy,
                high_water: 0,
                denials: [0; MAX_POOL_CLIENTS],
            })),
        }
    }

    /// The pool every standalone [`crate::HostStack`] builds for itself:
    /// generous enough that single-connection traffic never sees a denial.
    pub fn default_for_host() -> Self {
        PacketPool::new(32, DEFAULT_BUF_CAPACITY, QosPolicy::Fair)
    }

    fn lock(&self) -> MutexGuard<'_, PoolInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes one empty buffer for `client`. Returns `None` — without
    /// allocating — when the pool is exhausted or the policy refuses the
    /// client; the refusal is recorded in [`PoolStats::denials`].
    pub fn alloc(&self, client: usize) -> Option<PooledBuf> {
        let client = client.min(MAX_POOL_CLIENTS - 1);
        let mut inner = self.lock();
        if inner.available() == 0 || !inner.admitted(client) {
            inner.denials[client] += 1;
            return None;
        }
        let buf = match inner.free.pop() {
            Some(buf) => buf,
            None => {
                inner.created += 1;
                Vec::with_capacity(inner.buf_capacity)
            }
        };
        inner.in_use[client] += 1;
        let used = inner.capacity - inner.available();
        if used > inner.high_water {
            inner.high_water = used;
        }
        Some(PooledBuf {
            buf,
            origin: BufOrigin::Pooled {
                pool: Arc::clone(&self.inner),
                client: client as u8,
            },
        })
    }

    /// [`PacketPool::alloc`] with a heap fallback: when the pool refuses,
    /// a plain unpooled buffer is handed out instead so no PDU is ever
    /// dropped. The denial still shows up in the stats — the alloc-budget
    /// test sizes pools so steady state never takes this branch.
    pub fn alloc_or_heap(&self, client: usize) -> PooledBuf {
        self.alloc(client).unwrap_or_else(|| {
            let buf_capacity = self.lock().buf_capacity;
            PooledBuf {
                buf: Vec::with_capacity(buf_capacity),
                origin: BufOrigin::Heap,
            }
        })
    }

    /// Per-buffer byte capacity.
    pub fn buf_capacity(&self) -> usize {
        self.lock().buf_capacity
    }

    /// Point-in-time occupancy counters.
    pub fn stats(&self) -> PoolStats {
        let inner = self.lock();
        PoolStats {
            capacity: inner.capacity,
            free: inner.available(),
            high_water: inner.high_water,
            denials: inner.denials,
        }
    }
}

#[derive(Debug)]
enum BufOrigin {
    /// Borrowed from a pool; returned (capacity intact) on drop.
    Pooled {
        pool: Arc<Mutex<PoolInner>>,
        client: u8,
    },
    /// Overflow/compatibility buffer owned outright; freed on drop.
    Heap,
}

/// An owned, growable byte buffer borrowed from a [`PacketPool`] (or, for
/// overflow and `Vec<u8>` compatibility, plain heap memory). Dereferences
/// to `[u8]`; dropping a pooled buffer returns it to its pool.
#[derive(Debug)]
pub struct PooledBuf {
    buf: Vec<u8>,
    origin: BufOrigin,
}

impl PooledBuf {
    /// Appends bytes. Within the pool's `buf_capacity` this never
    /// reallocates; beyond it the buffer grows like a `Vec` (and still
    /// returns to the pool with its grown capacity).
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn push(&mut self, byte: u8) {
        self.buf.push(byte);
    }

    /// Empties the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Copies the contents into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.clone()
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let BufOrigin::Pooled { pool, client } = &self.origin {
            let mut returned = std::mem::take(&mut self.buf);
            returned.clear();
            let mut inner = pool.lock().unwrap_or_else(PoisonError::into_inner);
            let client = usize::from(*client);
            inner.in_use[client] = inner.in_use[client].saturating_sub(1);
            inner.free.push(returned);
        }
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl From<Vec<u8>> for PooledBuf {
    /// Wraps an existing heap `Vec` (compatibility with non-hot-path
    /// callers); the buffer is not pool-managed.
    fn from(buf: Vec<u8>) -> Self {
        PooledBuf {
            buf,
            origin: BufOrigin::Heap,
        }
    }
}

impl Clone for PooledBuf {
    /// Clones the *contents* into an unpooled heap buffer — cloning must
    /// not double-count pool occupancy.
    fn clone(&self) -> Self {
        PooledBuf {
            buf: self.buf.clone(),
            origin: BufOrigin::Heap,
        }
    }
}

impl PartialEq for PooledBuf {
    fn eq(&self, other: &Self) -> bool {
        self.buf == other.buf
    }
}

impl Eq for PooledBuf {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle_restores_the_pool() {
        let pool = PacketPool::new(2, 16, QosPolicy::Fair);
        let a = pool.alloc(0).unwrap();
        let b = pool.alloc(0).unwrap();
        assert!(pool.alloc(0).is_none(), "pool exhausted");
        assert_eq!(pool.stats().free, 0);
        drop(a);
        drop(b);
        let stats = pool.stats();
        assert_eq!(stats.free, 2);
        assert_eq!(stats.high_water, 2);
        assert_eq!(stats.total_denials(), 1);
    }

    #[test]
    fn buffers_are_created_on_first_demand_and_reused() {
        let pool = PacketPool::new(4, 16, QosPolicy::Fair);
        let created = || pool.lock().created;
        assert_eq!(created(), 0, "an idle pool owns no buffers");
        assert_eq!(pool.stats().free, 4);
        let a = pool.alloc(0).unwrap();
        let b = pool.alloc(0).unwrap();
        assert_eq!(created(), 2);
        drop(a);
        let _c = pool.alloc(0).unwrap();
        assert_eq!(created(), 2, "a returned buffer is reused first");
        drop(b);
    }

    #[test]
    fn returned_buffers_come_back_empty_with_capacity() {
        let pool = PacketPool::new(1, 16, QosPolicy::Fair);
        let mut buf = pool.alloc(0).unwrap();
        buf.extend_from_slice(&[1, 2, 3]);
        drop(buf);
        let buf = pool.alloc(0).unwrap();
        assert!(buf.is_empty());
    }

    #[test]
    fn reserve_n_protects_the_quiet_client() {
        let mut reserve = [0u16; MAX_POOL_CLIENTS];
        reserve[0] = 1;
        reserve[1] = 2;
        let pool = PacketPool::new(4, 16, QosPolicy::ReserveN { reserve });
        // Client 0 grabs greedily: its reserve (1) plus the unreserved
        // slack (4 - 1 - 2 = 1), then hits the wall.
        let _a = pool.alloc(0).unwrap();
        let _b = pool.alloc(0).unwrap();
        assert!(pool.alloc(0).is_none(), "client 1's reserve is protected");
        // Client 1 can still take its full reserve.
        let _c = pool.alloc(1).unwrap();
        let _d = pool.alloc(1).unwrap();
        assert!(pool.alloc(1).is_none(), "pool now genuinely empty");
    }

    #[test]
    fn heap_fallback_never_fails_and_counts_the_denial() {
        let pool = PacketPool::new(1, 16, QosPolicy::Fair);
        let _held = pool.alloc(0).unwrap();
        let mut overflow = pool.alloc_or_heap(0);
        overflow.extend_from_slice(b"x");
        assert_eq!(&overflow[..], b"x");
        assert_eq!(pool.stats().total_denials(), 1);
        drop(overflow);
        assert_eq!(pool.stats().free, 0, "heap buffer does not join the pool");
    }

    #[test]
    fn clone_is_unpooled() {
        let pool = PacketPool::new(1, 16, QosPolicy::Fair);
        let mut buf = pool.alloc(0).unwrap();
        buf.extend_from_slice(&[7, 7]);
        let copy = buf.clone();
        drop(buf);
        assert_eq!(pool.stats().free, 1);
        assert_eq!(&copy[..], &[7, 7]);
        drop(copy);
        assert_eq!(pool.stats().free, 1, "clone never returns to the pool");
    }

    #[test]
    fn from_vec_compares_by_content() {
        let pool = PacketPool::new(1, 16, QosPolicy::Fair);
        let mut buf = pool.alloc(0).unwrap();
        buf.extend_from_slice(&[1, 2]);
        assert_eq!(buf, PooledBuf::from(vec![1, 2]));
        assert_ne!(buf, PooledBuf::from(vec![1]));
    }
}
