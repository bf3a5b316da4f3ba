//! Lock-freedom witnesses (experiment E7): operations keep
//! completing — and stay linearizable — while updaters are stalled
//! mid-operation. A stalled insert is the real `insert`, suspended at its
//! `InsertLinearized` fault point: announced and activated (line 174),
//! never completed.

use std::sync::Arc;
use std::time::Duration;

use lftrie::baselines::MutexBinaryTrie;
use lftrie::core::fault::{suspend_at, FaultPoint::InsertLinearized};
use lftrie::core::LockFreeBinaryTrie;

#[test]
fn stalled_insert_is_linearized_and_visible() {
    let trie = LockFreeBinaryTrie::new(64);
    trie.insert(3);
    // Activated but stalled: no bit updates, no notifications, no
    // de-announcement.
    assert!(suspend_at(InsertLinearized, || trie.insert(17)));
    // The insert linearized at activation, so 17 is in S:
    assert!(trie.contains(17));
    assert_eq!(trie.predecessor(20), Some(17));
    assert_eq!(trie.predecessor(17), Some(3));
    // Its announcement legitimately remains (the op never completed).
    let a = trie.announcements();
    assert!(a.uall >= 1 && a.ruall >= 1);
}

#[test]
fn operations_complete_past_stalled_updates() {
    let trie = Arc::new(LockFreeBinaryTrie::new(256));
    for k in [40u64, 80, 120, 160] {
        suspend_at(InsertLinearized, || trie.insert(k));
    }
    // Other threads must make progress and observe the stalled keys.
    let handles: Vec<_> = (0..3u64)
        .map(|t| {
            let trie = Arc::clone(&trie);
            std::thread::spawn(move || {
                let mut state = t + 1;
                let mut done = 0u64;
                for _ in 0..5_000 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let k = (state >> 33) % 256;
                    match state % 4 {
                        0 => {
                            trie.insert(k);
                        }
                        1 => {
                            // Leave the stalled keys in place so assertions
                            // below stay deterministic.
                            if ![40, 80, 120, 160].contains(&k) {
                                trie.remove(k);
                            }
                        }
                        2 => {
                            std::hint::black_box(trie.contains(k));
                        }
                        _ => {
                            std::hint::black_box(trie.predecessor(k));
                        }
                    }
                    done += 1;
                }
                done
            })
        })
        .collect();
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, 15_000, "every operation completed despite stalls");
    for k in [40u64, 80, 120, 160] {
        assert!(trie.contains(k), "stalled-but-linearized key {k} visible");
    }
    assert_eq!(trie.predecessor(41), Some(40));
}

#[test]
fn delete_of_a_stalled_insert_completes() {
    // A later delete must finish the handshake with the stalled insert
    // (helping via latestNext/target/stop) and remove the key.
    let trie = LockFreeBinaryTrie::new(32);
    suspend_at(InsertLinearized, || trie.insert(9));
    assert!(trie.contains(9));
    assert!(trie.remove(9));
    assert!(!trie.contains(9));
    assert_eq!(trie.predecessor(10), None);
    // And the key can come back.
    assert!(trie.insert(9));
    assert_eq!(trie.predecessor(10), Some(9));
}

#[test]
fn mutex_baseline_blocks_where_lockfree_does_not() {
    // Contrast witness: with the global lock held, no operation completes
    // within the window; the lock-free trie under the same workload does.
    let mutex_trie = Arc::new(MutexBinaryTrie::new(64));
    let lf_trie = Arc::new(LockFreeBinaryTrie::new(64));
    suspend_at(InsertLinearized, || lf_trie.insert(5));

    let guard = mutex_trie.stall_guard();
    let blocked = {
        let mutex_trie = Arc::clone(&mutex_trie);
        std::thread::spawn(move || {
            // This blocks until the guard drops.
            lftrie::baselines::ConcurrentOrderedSet::insert(&*mutex_trie, 7)
        })
    };
    // Meanwhile the lock-free trie finishes thousands of ops.
    let mut done = 0u64;
    for i in 0..5_000u64 {
        lf_trie.insert(i % 64);
        done += 1;
    }
    assert_eq!(done, 5_000);
    assert!(
        !blocked.is_finished(),
        "mutex op still blocked by the guard"
    );
    std::thread::sleep(Duration::from_millis(20));
    assert!(!blocked.is_finished());
    drop(guard);
    assert!(blocked.join().unwrap());
}
