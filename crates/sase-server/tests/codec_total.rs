//! The wire codec is total and unchanged.
//!
//! * The ingest frame format did not move: a frame written before the byte
//!   path was rebuilt decodes, re-encodes identically, and is what
//!   `Client::ingest` puts on the socket.
//! * Every truncation and single-bit flip of that frame is a typed
//!   [`WireFault`] — never a panic — and decoding damaged bytes never
//!   makes an allocation larger than the frame itself.
//!
//! * The store's engine snapshot frame is held to the same bounds: every
//!   truncation and single-bit flip of its golden version-3 frame is a
//!   typed decode error or a well-formed snapshot, within a constant
//!   multiple of the frame's size per allocation.
//!
//! The test binary installs a global allocator that records, per thread
//! and only while asked to, the largest single allocation requested.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpListener;

use sase_server::client::Client;
use sase_server::wire::{
    decode_request, encode_request, encode_response_parts, read_frame, write_frame, Request,
    ResponseParts, TickMode, WireFault,
};
use sase_server::ServerError;
use sase_store::codec::{get_engine_snapshot, put_engine_snapshot, ByteReader, ByteWriter};
use sase_store::StoreError;

// Shared with `sase-store`'s format tests, which also use its snapshot.
#[allow(dead_code)]
#[path = "../../sase-store/tests/fixtures/values.rs"]
mod values;

struct PeakAlloc;

// `Some(max)` while this thread is measuring. Const-initialized, so the
// allocator reading it never allocates.
thread_local! {
    static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|peak| {
        if let Some(max) = peak.get() {
            peak.set(Some(max.max(size)));
        }
    });
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Run `f`, returning its result and the largest single allocation it
/// requested on this thread.
fn peak_alloc<R>(f: impl FnOnce() -> R) -> (R, usize) {
    PEAK.with(|peak| peak.set(Some(0)));
    let out = f();
    let max = PEAK.with(|peak| peak.replace(None)).unwrap_or(0);
    (out, max)
}

fn golden_frame() -> Vec<u8> {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/ingest_frame.bin");
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn golden_request() -> Request {
    let reg = values::registry();
    Request::Ingest {
        stream: Some("readings".into()),
        ticks: TickMode::Explicit,
        events: values::events(&reg),
    }
}

#[test]
fn golden_ingest_frame_decodes_and_reencodes_identically() {
    let golden = golden_frame();
    let reg = values::registry();
    let want = golden_request();

    let mut cursor = &golden[..];
    let payload = read_frame(&mut cursor).unwrap().expect("one frame");
    assert!(cursor.is_empty(), "the fixture is exactly one frame");
    let decoded = decode_request(&payload, &reg).unwrap();
    assert_eq!(format!("{decoded:?}"), format!("{want:?}"));

    assert_eq!(
        encode_request(&decoded),
        payload,
        "the payload format moved"
    );
    let mut framed = Vec::new();
    write_frame(&mut framed, &encode_request(&want)).unwrap();
    assert_eq!(framed, golden, "the frame format moved");
}

/// `Client::ingest` encodes straight from the caller's slice; what reaches
/// the socket must still be the golden frame, byte for byte.
#[test]
fn client_ingest_puts_the_golden_frame_on_the_socket() {
    let golden = golden_frame();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let expect = golden.len();
    let peer = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut got = vec![0u8; expect];
        sock.read_exact(&mut got).unwrap();
        write_frame(
            &mut sock,
            &encode_response_parts(&ResponseParts::Ingested(&[])),
        )
        .unwrap();
        sock.flush().unwrap();
        got
    });

    let reg = values::registry();
    let mut client = Client::connect(addr).unwrap();
    let acked = client
        .ingest(Some("readings"), TickMode::Explicit, &values::events(&reg))
        .unwrap();
    assert!(acked.is_empty());
    assert_eq!(peer.join().unwrap(), golden);
}

/// Framing damage: every cut and every flipped bit of the frame is caught
/// by the length check or the CRC and reported as a typed fault.
#[test]
fn a_damaged_frame_is_a_typed_fault() {
    let golden = golden_frame();

    assert!(matches!(read_frame(&mut &golden[..0]), Ok(None)));
    for cut in 1..golden.len() {
        match read_frame(&mut &golden[..cut]) {
            Err(ServerError::Wire(WireFault::Truncated)) => {}
            other => panic!("cut at {cut}: {other:?}"),
        }
    }
    for bit in 0..golden.len() * 8 {
        let mut bytes = golden.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        match read_frame(&mut &bytes[..]) {
            Err(ServerError::Wire(
                WireFault::Crc { .. } | WireFault::Truncated | WireFault::FrameTooLarge(_),
            )) => {}
            other => panic!("bit {bit}: {other:?}"),
        }
    }
}

/// Body damage, past the CRC (a peer that checksums garbage): every cut
/// and every flipped bit of the payload decodes to a typed fault or to
/// some well-formed request, without panicking and without reserving more
/// than the frame's own size for any count the bytes claim.
#[test]
fn a_damaged_payload_never_panics_or_overallocates() {
    let golden = golden_frame();
    let reg = values::registry();
    let payload = read_frame(&mut &golden[..]).unwrap().unwrap();
    let whole = format!("{:?}", golden_request());

    let check = |bytes: &[u8], what: &str| {
        let (outcome, peak) = peak_alloc(|| decode_request(bytes, &reg));
        assert!(
            peak <= golden.len(),
            "{what}: one allocation of {peak} bytes decoding a {}-byte frame",
            golden.len()
        );
        outcome
    };

    assert_eq!(format!("{:?}", check(&payload, "intact").unwrap()), whole);
    for cut in 0..payload.len() {
        let what = format!("cut at {cut}");
        assert!(
            check(&payload[..cut], &what).is_err(),
            "{what} decoded to a request"
        );
    }
    for bit in 0..payload.len() * 8 {
        let mut bytes = payload.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        // A flipped value bit is another valid request; a flipped count,
        // tag or name is a fault. Either way `check` bounds the cost.
        let _ = check(&bytes, &format!("bit {bit}"));
    }
}

/// No single allocation decoding a snapshot frame exceeds this many times
/// the frame's length: every count is bounded by the bytes its elements
/// need (`ByteReader::count_of`), and the widest element per encoded byte
/// is a `Value` (24 bytes) behind its 2-byte encoding.
const ALLOC_PER_BYTE: usize = 12;

/// The store's checkpoint codec, measured here beside the wire's under the
/// same allocator hook. Past the CRC (a disk that checksums garbage): every
/// cut and every flipped bit of the snapshot frame of `values::snapshot()`
/// (the frame `sase-store`'s golden `checkpoint_v3.ckpt` pins) decodes to
/// a typed [`StoreError::Decode`] or to some well-formed snapshot, without
/// panicking and within [`ALLOC_PER_BYTE`].
#[test]
fn a_damaged_snapshot_frame_never_panics_or_overallocates() {
    let mut w = ByteWriter::new();
    put_engine_snapshot(&mut w, &values::snapshot());
    let frame = &w.into_bytes()[..];
    let check = |bytes: &[u8], what: &str| {
        let (outcome, peak) = peak_alloc(|| {
            let mut r = ByteReader::new(bytes);
            get_engine_snapshot(&mut r).and_then(|snap| r.expect_end().map(|()| snap))
        });
        assert!(
            peak <= ALLOC_PER_BYTE * frame.len(),
            "{what}: one allocation of {peak} bytes decoding a {}-byte frame",
            frame.len()
        );
        match outcome {
            Ok(_) | Err(StoreError::Decode(_)) => outcome,
            Err(other) => panic!("{what}: unexpected error class {other}"),
        }
    };

    assert_eq!(check(frame, "intact").unwrap(), values::snapshot());
    for cut in 0..frame.len() {
        let what = format!("cut at {cut}");
        assert!(check(&frame[..cut], &what).is_err(), "{what} decoded");
    }
    for bit in 0..frame.len() * 8 {
        let mut bytes = frame.to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        // A flipped value bit is another valid snapshot; a flipped count,
        // tag or name is a fault. Either way `check` bounds the cost.
        let _ = check(&bytes, &format!("bit {bit}"));
    }
}
