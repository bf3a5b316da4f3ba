//! IP route lookup with predecessor queries — the routing application the
//! paper's introduction motivates (§1 cites IP routing [19]).
//!
//! A forwarding table of disjoint CIDR blocks inside 10.0.0.0/8 is stored as
//! an ordered set of block *start indices* at /24 granularity (so the key
//! universe is the 2^16 possible 10.x.y.0/24 positions — the trie allocates
//! Θ(u) eagerly). Looking up an address is
//! `predecessor(index + 1)`: the nearest block start at or below the
//! address, validated against that block's length. Route updates (BGP
//! churn) and lookups (the data plane) run concurrently with no locks.
//!
//! ```text
//! cargo run --release --example ip_routing
//! ```

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

use lftrie::core::LockFreeBinaryTrie;

/// Key universe: /24 positions inside 10.0.0.0/8 → 2^16 keys, plus one so
/// `predecessor(last_key + 1)` is still a legal query.
const UNIVERSE: u64 = (1 << 16) + 1;

/// Block length in /24 units per start index (0 = no route installed);
/// lock-free side table for next-hop metadata.
struct SideTable {
    len: Vec<AtomicU8>,
}

impl SideTable {
    fn new() -> Self {
        Self {
            len: (0..UNIVERSE).map(|_| AtomicU8::new(0)).collect(),
        }
    }
    fn set(&self, start: u64, blocks: u8) {
        self.len[start as usize].store(blocks, Ordering::SeqCst);
    }
    fn get(&self, start: u64) -> u8 {
        self.len[start as usize].load(Ordering::SeqCst)
    }
}

fn key_of(addr: u32) -> u64 {
    u64::from((addr >> 8) & 0xFFFF)
}

fn prefix_of(key: u64) -> Ipv4Addr {
    Ipv4Addr::from((10u32 << 24) | ((key as u32) << 8))
}

fn main() {
    let table = Arc::new(LockFreeBinaryTrie::new(UNIVERSE));
    let side = Arc::new(SideTable::new());

    // Install disjoint blocks of 1..=16 /24s: starts stride by 16.
    let mut installed = 0u32;
    for i in 0..2048u64 {
        let start = i * 16;
        let blocks = (i % 16 + 1) as u8;
        side.set(start, blocks);
        table.insert(start);
        installed += 1;
    }

    let lookup = |addr: u32| -> Option<(Ipv4Addr, u8)> {
        let key = key_of(addr);
        let start = table.predecessor(key + 1)?;
        let blocks = side.get(start);
        (key - start < u64::from(blocks)).then(|| (prefix_of(start), blocks))
    };

    // Data-plane lookups while the control plane churns routes.
    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let table = Arc::clone(&table);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut flips = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let start = (flips % 2048) * 16;
                table.remove(start); // withdraw
                table.insert(start); // re-announce
                flips += 1;
            }
            flips
        })
    };

    let mut hits = 0u64;
    let mut holes = 0u64;
    for q in 0..200_000u32 {
        let addr = (10u32 << 24) | ((q * 2654435761) & 0x00FF_FFFF);
        match lookup(addr) {
            Some((prefix, blocks)) => {
                // The covering block really covers the address.
                let start = key_of(u32::from(prefix));
                assert!(key_of(addr) - start < u64::from(blocks));
                hits += 1;
            }
            None => holes += 1, // between blocks, or withdrawn this instant
        }
    }
    stop.store(true, Ordering::Relaxed);
    let flips = churn.join().unwrap();

    println!("installed {installed} variable-length blocks under 10.0.0.0/8");
    println!("200000 lookups: {hits} covered, {holes} in holes");
    println!("control-plane route flips during the run: {flips}");
    // Block #7 starts at /24 index 112 with length 8, so 10.0.115.42 is
    // covered by a block that does not start at its own /24 — a real
    // predecessor lookup.
    let (prefix, blocks) = lookup(u32::from(Ipv4Addr::new(10, 0, 115, 42))).expect("installed");
    println!("lookup(10.0.115.42) -> block start {prefix}, {blocks} x /24");
    assert_eq!(prefix, Ipv4Addr::new(10, 0, 112, 0));
}
