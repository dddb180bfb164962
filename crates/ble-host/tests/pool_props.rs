//! Property tests for the fixed-capacity [`PacketPool`] and its QoS
//! admission policies.
//!
//! Four invariants are pinned over arbitrary alloc/drop interleavings:
//!
//! 1. **Conservation / no double-free** — at every step, buffers held out
//!    plus buffers free equals the build-time capacity; dropping a
//!    `PooledBuf` returns exactly one buffer.
//! 2. **Exhaustion is observable and side-effect-free** — a refused
//!    `alloc` returns `None`, leaves occupancy untouched, and records the
//!    denial for exactly the refused client.
//! 3. **`ReserveN` starvation guarantee** — while a client holds fewer
//!    buffers than its reserve (and reserves fit the capacity), its next
//!    `alloc` always succeeds, no matter how greedy the other clients were.
//! 4. **Bounded on-demand buffers** — pools create buffers lazily, yet the
//!    pooled buffers ever handed out occupy at most `capacity` distinct
//!    allocations.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code may panic freely

use std::collections::BTreeSet;

use ble_host::pool::{PacketPool, PooledBuf, QosPolicy, MAX_POOL_CLIENTS};
use proptest::collection::vec;
use proptest::prelude::*;

/// One step of a pool workload: take a buffer for a client, or return the
/// oldest/newest buffer currently held.
#[derive(Debug, Clone)]
enum Op {
    Alloc { client: usize },
    DropOldest,
    DropNewest,
}

fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..MAX_POOL_CLIENTS).prop_map(|client| Op::Alloc { client }),
        Just(Op::DropOldest),
        Just(Op::DropNewest),
    ]
}

fn any_policy() -> impl Strategy<Value = QosPolicy> {
    prop_oneof![
        Just(QosPolicy::Fair),
        vec(0u16..4, MAX_POOL_CLIENTS..MAX_POOL_CLIENTS + 1).prop_map(|r| {
            let mut reserve = [0u16; MAX_POOL_CLIENTS];
            reserve.copy_from_slice(&r);
            QosPolicy::ReserveN { reserve }
        }),
    ]
}

proptest! {
    /// Invariant 1: held + free == capacity after every operation, for any
    /// policy and any interleaving — a lost or double-returned buffer
    /// breaks the equation in opposite directions.
    #[test]
    fn occupancy_is_conserved(
        capacity in 1usize..12,
        policy in any_policy(),
        ops in vec(any_op(), 1..120),
    ) {
        let pool = PacketPool::new(capacity, 32, policy);
        let mut held: Vec<PooledBuf> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc { client } => {
                    if let Some(buf) = pool.alloc(client) {
                        held.push(buf);
                    }
                }
                Op::DropOldest => {
                    if !held.is_empty() {
                        drop(held.remove(0));
                    }
                }
                Op::DropNewest => {
                    drop(held.pop());
                }
            }
            let stats = pool.stats();
            prop_assert_eq!(stats.capacity, capacity);
            prop_assert_eq!(
                held.len() + stats.free,
                capacity,
                "held {} + free {} must equal capacity {}",
                held.len(), stats.free, capacity
            );
            prop_assert!(stats.high_water <= capacity);
        }
        drop(held);
        prop_assert_eq!(pool.stats().free, capacity, "all buffers must come home");
    }

    /// Invariant 2: once the pool is drained, every further `alloc` returns
    /// `None`, changes no occupancy counter, and charges the denial to the
    /// client that asked.
    #[test]
    fn exhaustion_denies_without_side_effects(
        capacity in 1usize..8,
        clients in vec(0..MAX_POOL_CLIENTS, 1..20),
    ) {
        let pool = PacketPool::new(capacity, 32, QosPolicy::Fair);
        let held: Vec<PooledBuf> =
            (0..capacity).map(|_| pool.alloc(0).expect("fillable")).collect();
        let baseline = pool.stats();
        prop_assert_eq!(baseline.free, 0);
        let mut expected_denials = baseline.denials;
        for client in clients {
            prop_assert!(pool.alloc(client).is_none(), "exhausted pool must refuse");
            expected_denials[client.min(MAX_POOL_CLIENTS - 1)] += 1;
            let stats = pool.stats();
            prop_assert_eq!(stats.free, 0, "a refusal must not free anything");
            prop_assert_eq!(stats.high_water, baseline.high_water);
            prop_assert_eq!(stats.denials, expected_denials);
        }
        drop(held);
        prop_assert_eq!(pool.stats().free, capacity);
    }

    /// Invariant 3: under `ReserveN` with reserves that fit the capacity, a
    /// client below its reserve is never starved — regardless of how many
    /// buffers the other clients grabbed first.
    #[test]
    fn reserve_n_client_below_reserve_always_admitted(
        reserves in vec(0u16..3, MAX_POOL_CLIENTS..MAX_POOL_CLIENTS + 1),
        slack in 0usize..4,
        greedy_ops in vec((0..MAX_POOL_CLIENTS, any::<bool>()), 0..60),
        victim in 0..MAX_POOL_CLIENTS,
    ) {
        let mut reserve = [0u16; MAX_POOL_CLIENTS];
        reserve.copy_from_slice(&reserves);
        let reserved: usize = reserve.iter().map(|&r| usize::from(r)).sum();
        let capacity = reserved + slack;
        prop_assume!(capacity > 0);
        prop_assume!(reserve[victim] > 0);
        let pool = PacketPool::new(capacity, 32, QosPolicy::ReserveN { reserve });

        // Arbitrary traffic from every client (the victim included), with
        // interleaved drops.
        let mut held: Vec<PooledBuf> = Vec::new();
        let mut victim_held: Vec<PooledBuf> = Vec::new();
        for (client, drop_one) in greedy_ops {
            if drop_one {
                drop(held.pop());
            } else if let Some(buf) = pool.alloc(client) {
                if client == victim {
                    victim_held.push(buf);
                } else {
                    held.push(buf);
                }
            }
        }
        // The guarantee under test: below its reserve, the victim's next
        // request must be admitted.
        if victim_held.len() < usize::from(reserve[victim]) {
            prop_assert!(
                pool.alloc(victim).is_some(),
                "client {} below its reserve ({} < {}) was starved",
                victim, victim_held.len(), reserve[victim]
            );
        }
    }

    /// Invariant 4: over any alloc/drop/denial sequence, with or without
    /// the heap fallback, the pooled buffers handed out have at most
    /// `capacity` distinct backing addresses. Heap fallbacks (the calls
    /// that raised the denial count) are excluded: they are not the pool's.
    #[test]
    fn pooled_buffers_never_exceed_capacity_distinct_allocations(
        capacity in 1usize..12,
        policy in any_policy(),
        ops in vec((any_op(), any::<bool>()), 1..120),
    ) {
        let pool = PacketPool::new(capacity, 32, policy);
        let mut held: Vec<PooledBuf> = Vec::new();
        let mut addresses = BTreeSet::new();
        for (op, fallback) in ops {
            match op {
                Op::Alloc { client } => {
                    let denials = pool.stats().total_denials();
                    let buf = if fallback {
                        Some(pool.alloc_or_heap(client))
                    } else {
                        pool.alloc(client)
                    };
                    if let Some(buf) = buf {
                        if pool.stats().total_denials() == denials {
                            addresses.insert(buf.as_ptr());
                        }
                        held.push(buf);
                    }
                }
                Op::DropOldest => {
                    if !held.is_empty() {
                        drop(held.remove(0));
                    }
                }
                Op::DropNewest => {
                    drop(held.pop());
                }
            }
            prop_assert!(
                addresses.len() <= capacity,
                "{} distinct pooled buffers from a pool of {}",
                addresses.len(), capacity
            );
        }
    }
}
