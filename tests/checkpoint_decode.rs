//! Checkpoint bytes come from outside the program (disk, a peer rank), so
//! no image may make `Checkpoint::decode` panic: a malformed one is a typed
//! `CkptError`.

use xmoe::train::{Checkpoint, CkptError};

/// A v1 (`XMOECKP1`, no CRCs) image with one entry named `w` whose shape is
/// `rows = 2^62, cols = 1`. `rows * cols` fits in a `u64`, but the payload
/// size `rows * cols * 4` wraps to 0, so an unchecked multiply reads an
/// empty payload and then builds a tensor whose shape disagrees with it.
fn wrapping_shape_v1_image() -> Vec<u8> {
    let mut img = Vec::new();
    img.extend_from_slice(b"XMOECKP1");
    img.extend_from_slice(&0u64.to_le_bytes()); // step
    img.extend_from_slice(&0u64.to_le_bytes()); // rng state
    img.extend_from_slice(&0u64.to_le_bytes()); // adam step
    img.extend_from_slice(&1u64.to_le_bytes()); // entry count
    img.extend_from_slice(&1u32.to_le_bytes()); // name length
    img.push(b'w');
    img.extend_from_slice(&(1u64 << 62).to_le_bytes()); // rows
    img.extend_from_slice(&1u64.to_le_bytes()); // cols
    img
}

#[test]
fn payload_size_overflow_is_a_bad_entry_not_a_panic() {
    let img = wrapping_shape_v1_image();
    assert_eq!(img.len(), 61);
    match Checkpoint::decode(&img) {
        Err(CkptError::BadEntry(what)) => assert!(what.contains("overflow"), "{what}"),
        other => panic!("expected BadEntry, got {other:?}"),
    }
}
